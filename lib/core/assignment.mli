(** An assignment A of reviewers to papers, stored per paper. *)

type t = { groups : int list array }
(** [groups.(p)] is the (unordered, duplicate-free) list of reviewer
    indices assigned to paper [p]. *)

val empty : n_papers:int -> t
val copy : t -> t

val of_pairs : n_papers:int -> (int * int) list -> t
(** Build from [(reviewer, paper)] pairs. *)

val pairs : t -> (int * int) list
(** All [(reviewer, paper)] pairs, paper-major order. *)

val group : t -> int -> int list
val add : t -> paper:int -> reviewer:int -> unit
val size : t -> int
(** Total number of assigned pairs. *)

val workloads : t -> n_reviewers:int -> int array
(** Papers currently assigned to each reviewer. *)

val group_vector : Instance.t -> t -> int -> Topic_vector.t
(** Coordinatewise-max expertise vector of paper [p]'s group (all-zero
    for an empty group). *)

val paper_score : Instance.t -> t -> int -> float
(** c(g, p) for paper [p] under the instance scoring:
    O(|g| * nnz(p)) through {!Scoring.group_score_sparse}, bit-equal to
    the dense [Scoring.score] on {!group_vector}, except for
    [Reviewer_coverage] and empty groups, which take that dense path. *)

val coverage : Instance.t -> t -> float
(** The WGRAP objective c(A): sum of per-paper group scores. *)

val to_lines : t -> string list
(** Canonical serialization, one line per paper:
    [paper_id \t reviewer ids ';'-separated]. Byte-deterministic and
    order-preserving: [of_lines (to_lines t)] restores not just the same
    groups but the same in-memory list order, which is what lets a
    resumed {!Sra} run replay the uninterrupted run's victim draws. *)

val of_lines : n_papers:int -> string list -> (t, string) result
(** Inverse of {!to_lines}; papers may appear in any order but each at
    most once, ids must be in range, blank lines are skipped.
    Feasibility is NOT checked — run {!validate} against an instance for
    that. *)

val save_tsv : t -> string -> unit
(** {!to_lines} written to a file, newline-terminated. *)

val load_tsv : n_papers:int -> string -> (t, string) result
(** {!of_lines} over a file's lines. *)

val equal : t -> t -> bool
(** Same paper count and the same reviewer {e set} per paper (list order
    is ignored — groups are semantically unordered). *)

val validate : Instance.t -> t -> (unit, string) result
(** Full feasibility check: exactly [delta_p] distinct reviewers per
    paper, no reviewer above [delta_r], no COI pair used. *)

val validate_partial : Instance.t -> t -> (unit, string) result
(** As {!validate} but groups may be short (at most [delta_p] instead of
    exactly) — the certification check for a checkpoint captured midway
    through SDGA's stage loop, where groups are still filling. *)

val is_feasible : Instance.t -> t -> bool
