(** Shared incremental gain-matrix layer.

    Per-paper rows of marginal coverage gains (Definition 8) w.r.t. a
    maintained group vector per paper, shared by {!Stage.solve} (its
    [~gains] argument), and by {!Sdga}, {!Greedy} and {!Sra} through
    [ctx.gains]. Rows live in Bigarray (Float64, C-layout)
    buffers allocated lazily on first touch — outside the OCaml heap,
    so pool domains read them without GC traffic — and are versioned
    per paper, like the lazy greedy heap entries: a group update bumps
    a paper's version only when it actually moved the group vector
    somewhere the paper's gains can see (its topic support — everywhere
    for [Reviewer_coverage]), and stale rows are recomputed lazily with
    {!Scoring.gain_row} on next access. Group vectors are kept in
    {!Scoring}'s layout: on the paper's support, or over every topic
    for [Reviewer_coverage].

    One row layout serves every width: a row holds one cell per entry
    of the paper's candidate list, in ascending reviewer order. The
    width is chosen at {!create}:

    {ul
    {- {e Dense} ([candidates = 0], or [candidates >= n_r]): every row's
       list is one shared identity list [[|0..n_r-1|]], so a row covers
       every reviewer.}
    {- {e Candidate-pruned} ([0 < candidates < n_r]): each row covers
       only the paper's top-k candidates from {!Instance.candidates}
       (inverted topic index, exact pair-score ranking, COI filtered),
       retrieved lazily per paper. Total row storage is O(n_p * k).
       Reviewers outside the candidate set simply have no cell, and
       consumers fall back to {!gain} for them.}}

    Every cell holds the float the dense sparse kernel computes for the
    pair, whatever the width. No allocation is [n_p * n_r]-sized: rows
    are per paper, there is no score-matrix cache, and the Eq. 9 sums
    are built one paper at a time.

    The matrix holds {e raw} coverage gains: conflicts of interest,
    capacities and group membership are masked by the consumers. Cells
    of reviewers already in a paper's group may hold stale values —
    every consumer excludes members before reading.

    Consistency with an evolving {!Assignment.t} is the caller's
    contract: call {!add} after each [Assignment.add], or {!set_group}
    when a group is rebuilt wholesale (the SRA removal phase). *)

type t

type row = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One paper's gain cells, one per entry of its candidate list. *)

val create : ?candidates:int -> Instance.t -> t
(** All groups empty; no rows computed yet. [candidates] is the per-
    paper top-k width, [0] (the default) for dense rows; a width
    [>= n_r] prunes nothing and normalizes to dense. O(n_p) until rows
    are touched — an xl-scale instance costs three option/int slots per
    paper here, plus the [n_r] identity list when dense. Raises [Invalid_argument] on a negative
    width. *)

val pruned : t -> bool
(** Whether the candidate-pruned backing is in force. *)

val candidate_count : t -> int
(** The normalized per-paper row width: the candidate width [k] when
    pruned, [n_r] on a dense matrix. *)

val candidates : t -> paper:int -> int array
(** The reviewer ids the paper's row covers, ascending: its top-k
    candidates when pruned (retrieved and then memoized on first call —
    possibly shorter than the width for papers with narrow supports),
    the shared identity list on a dense matrix. Do not mutate.

    A pruned retrieval also stores the paper's {e weight block}: the
    candidates' weights on the paper's support topics, [k * nnz(p)]
    floats, from which every later row recompute reads instead of the
    reviewers' dense vectors. *)

val matrix_bytes : t -> int
(** Bytes of gain rows and weight blocks allocated so far — the "peak
    matrix memory" a pruning bench reports. O(n_p) scan; telemetry
    only. *)

val reset : t -> unit
(** Empty every group and invalidate every row (cheap: versions bump,
    rows recompute lazily). *)

val add : t -> paper:int -> reviewer:int -> unit
(** Extend [paper]'s group vector by the reviewer (coordinatewise max)
    and invalidate the paper's row if the vector changed visibly.
    O(nnz(reviewer)). *)

val set_group : t -> paper:int -> int list -> unit
(** Replace [paper]'s group wholesale; invalidates the row only if the
    resulting vector differs visibly from the current one (an SRA
    removal whose victim never defined the max keeps the row). *)

val version : t -> paper:int -> int
(** Monotone per-paper group version — pairs with heap-entry versioning
    in {!Greedy}. *)

val gain : t -> paper:int -> reviewer:int -> float
(** One fresh marginal gain against the current group vector, computed
    directly with the sparse kernel; does not touch the row cache.
    Works for any reviewer, candidate or not. *)

val row : t -> paper:int -> row
(** The paper's row, recomputed first if stale: cell [i] is the gain of
    reviewer [(candidates t ~paper).(i)]. The buffer is the matrix's
    own and changes with the next group update; read it, do not keep
    or write it. What a hot consumer reads instead of {!iter_row}, whose
    callback takes each gain boxed. *)

val iter_row : t -> paper:int -> (reviewer:int -> gain:float -> unit) -> unit
(** Visit the paper's row, recomputing it first if stale: its candidate
    list in ascending order, which on a dense matrix is every reviewer.
    Consumers read rows this way whatever the width. *)

val fold_row :
  t -> paper:int -> init:'a -> ('a -> reviewer:int -> gain:float -> 'a) -> 'a
(** {!iter_row} as a fold, visiting the same cells in the same order —
    for consumers accumulating a value over a row (sums, argmax) without
    threading a ref through the callback. *)

val column_denominators : t -> float array
(** The Eq. 9 denominators [sum_p' c(r, p')], COI cells excluded,
    accumulated in paper order, computed once and cached. Under the
    three kinds with [f(v, 0) = 0] each paper contributes through one
    sweep of its support's postings ({!Candidate_index.iter_scores}):
    O(postings of the support) per paper, bit-identical to summing
    whole score rows, since the reviewers a sweep misses score exactly
    [0.]. [Reviewer_coverage] streams one transient {!Instance.score_row}
    per paper. O(n_r) live memory either way. The single source of
    truth for the denominator ({!Sra.keep_probability} reads it). *)

val prime : ?deadline:Wgrap_util.Timer.deadline -> t -> unit
(** Force the static state now, sequentially: every candidate list
    (nothing to retrieve on a dense matrix), then the Eq. 9 column
    sums. [deadline] is polled per row; expiry raises
    [Wgrap_util.Timer.Expired] and leaves the remaining state unset
    (safe: it computes lazily on access). *)

(** {1 Stage scratch} *)

type stage_scratch = {
  mutable value : float array;  (** edge values, slots [0 .. len - 1] *)
  mutable reviewer : int array;  (** edge reviewers *)
  mutable len : int;  (** edges in use *)
  mutable start : int array;
      (** per paper and one past the last: paper [p]'s edges are the
          slots from [start.(p)] up to [start.(p + 1)] *)
  mutable stop : int array;  (** per paper, the end of its live edges *)
  mutable heap : int array;  (** papers, a binary heap in matching order *)
  mutable mask : bool array;  (** per reviewer, [false] between uses *)
  mutable left : int array;  (** per reviewer, remaining capacity *)
  mutable chosen : int array;  (** per paper, the matched reviewer *)
}
(** The buffers {!Stage.solve} works in: its candidate edges as a
    struct of arrays grouped by paper, the matcher's per-paper heap, and
    its per-reviewer and per-paper arrays. They grow on first use and
    are reused by every later stage on the same matrix, so an SDGA
    stage or an SRA round allocates none of them. Only {!Stage} reads
    or writes them. *)

val stage_scratch : t -> stage_scratch
(** This matrix's stage buffers. Sequential use only, like the matrix's
    group state. *)

val rebuild : ?pool:Wgrap_par.Pool.t -> ?deadline:Wgrap_util.Timer.deadline -> t -> unit
(** Recompute all stale gain rows now. With [pool], rows are recomputed
    across domains (each row is a private Bigarray buffer) —
    bit-identical to the
    lazy sequential recomputation. Consumers that read whole rows right
    after a reset ({!Sdga} stage 1, {!Greedy}'s heap seeding) call this
    first to move the row fill onto the pool. [deadline] is polled per
    row; expiry raises [Wgrap_util.Timer.Expired], leaving the
    remaining rows stale (safe: they recompute lazily on access). *)
