(** Inverted topic → reviewer index for candidate retrieval.

    Compiled from the {!Topic_vector.support} posting lists at
    {!Instance.create}: one posting list per topic (reviewer ids with
    positive expertise there, strongest first), plus the reviewer masses
    needed by the [Reviewer_coverage] correction. {!top_k} retrieves,
    for one paper, the k reviewers with the highest exact single-pair
    score c(r, p) — the similarity-search shape real conference systems
    use instead of all-pairs scoring, and the pruning step the
    candidate-pruned {!Gain_matrix} rows are built from.

    The index is immutable after {!create}. A query works in a caller-
    owned {!scratch}, so concurrent retrievals from pool domains are
    safe as long as each task brings its own. *)

type t

val create : n_topics:int -> reviewers:Topic_vector.support array -> t
(** Build the postings in O(total nnz log total nnz); independent of the
    scoring kind (the kind is applied at query time). *)

val n_reviewers : t -> int

type scratch
(** Per-task query workspace: per-reviewer score accumulators and the
    list of reviewers the last walk touched. It grows to the largest
    reviewer count queried and is reset from that list at the start of
    the next walk, so a query costs O(postings visited), not O(n_r).
    One scratch serves any number of sequential queries, over any
    number of indexes; never share one between concurrent tasks. *)

val scratch : unit -> scratch
(** An empty scratch; it allocates on first use. *)

val iter_scores :
  t ->
  scratch ->
  scoring:Scoring.kind ->
  Topic_vector.support ->
  (int -> float -> unit) ->
  unit
(** [iter_scores t s ~scoring paper f] calls [f r c] once for every
    reviewer [r] with a posting on the paper's support, in traversal
    order, where [c] is c(r, p) bit-identical to
    {!Scoring.score_sparse}. Every other reviewer scores exactly [0.]
    under the three kinds with [f(v, 0) = 0]. O(postings of the
    support). Raises [Invalid_argument] for [Reviewer_coverage], under
    which every reviewer with mass off the support scores. *)

val top_k :
  t ->
  scratch ->
  scoring:Scoring.kind ->
  k:int ->
  ?forbidden:(int -> bool) ->
  Topic_vector.support ->
  int array
(** [top_k t s ~scoring ~k paper] returns at most [k] reviewer ids in
    ascending order, ranked by exact pair score (ties keep the lower
    id), skipping reviewers for which [forbidden] holds (COI filtering —
    a conflicted reviewer must not burn a candidate slot). Reviewers the
    posting traversal never touches score exactly 0 under the three
    kinds with [f(v, 0) = 0] and are omitted, so the result can be
    shorter than [k] for papers with narrow supports.

    For [Reviewer_coverage], whose off-support reviewer mass scores in
    full, the traversal is additionally seeded with the globally
    heaviest reviewers ([4k + 16] of them) so zero-overlap heavy
    reviewers compete; a paper conflicting with most of that seed set
    could in principle miss a pure off-support candidate — document
    rather than chase: candidate quality there is bounded by the seed
    width, and consumers keep the dense path as the oracle.

    Selection is a score-bounded heap: the worst kept candidate gates
    every later offer, and the kept set is uniquely determined by the
    (score, id) order — deterministic at any traversal order.

    Raises [Invalid_argument] when [k < 1] (a dense run should bypass
    retrieval entirely, see {!Gain_matrix.create}). *)
