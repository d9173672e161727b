(** A WGRAP problem instance (Definition 3): papers, reviewers, the group
    size constraint delta_p, the reviewer workload delta_r, conflicts of
    interest, and the scoring function in force. *)

type t = private {
  papers : Topic_vector.t array;
  reviewers : Topic_vector.t array;
  delta_p : int;  (** reviewers per paper (exactly) *)
  delta_r : int;  (** papers per reviewer (at most) *)
  scoring : Scoring.kind;
  coi : int array array;
      (** [coi.(p)]: paper [p]'s conflicted reviewers, ascending — read
          through {!forbidden}, {!conflicts} and {!coi_pairs} *)
  psupp : Topic_vector.support array;  (** compiled paper supports *)
  rsupp : Topic_vector.support array;  (** compiled reviewer supports *)
  cindex : Candidate_index.t;  (** inverted topic → reviewer index *)
}

val create :
  ?scoring:Scoring.kind ->
  ?coi:(int * int) list ->
  papers:Topic_vector.t array ->
  reviewers:Topic_vector.t array ->
  delta_p:int ->
  delta_r:int ->
  unit ->
  (t, string) result
(** Validates: non-empty sides, uniform dimensions, non-negative vectors,
    [1 <= delta_p <= R], [delta_r >= 1], capacity
    [R * delta_r >= P * delta_p], and COI pairs in range (given as
    [(paper, reviewer)] index pairs; duplicates are harmless). The
    conflicts are stored per paper, in memory proportional to their
    number. *)

val create_exn :
  ?scoring:Scoring.kind ->
  ?coi:(int * int) list ->
  papers:Topic_vector.t array ->
  reviewers:Topic_vector.t array ->
  delta_p:int ->
  delta_r:int ->
  unit ->
  t
(** As {!create} but raising [Invalid_argument]. *)

val n_papers : t -> int
val n_reviewers : t -> int
val n_topics : t -> int

val forbidden : t -> paper:int -> reviewer:int -> bool
(** Whether (reviewer, paper) is a conflict of interest: a binary search
    of the paper's {!conflicts}. *)

val conflicts : t -> paper:int -> int array
(** The reviewers in conflict with [paper], ascending and without
    duplicates ([[||]] for most papers). The array is shared with the
    instance: do not mutate it. *)

val paper_support : t -> int -> Topic_vector.support
val reviewer_support : t -> int -> Topic_vector.support
(** Compiled sparse views (nonzero topic indices, values, mass),
    precomputed at construction for the O(nnz) scoring kernels. *)

val pair_score : t -> paper:int -> reviewer:int -> float
(** c(r, p) under the instance's scoring function. *)

val score_matrix : t -> float array array
(** [P x R] matrix of single-reviewer scores; COI cells hold
    [Lap.Hungarian.forbidden]. Freshly computed — callers that need it
    repeatedly should keep the result. *)

val score_row : t -> paper:int -> float array
(** One freshly allocated row of {!score_matrix}. Rows are independent,
    which is what lets {!Gain_matrix.rebuild} compute them from separate
    domains. *)

val min_workload : papers:int -> reviewers:int -> delta_p:int -> int
(** The paper's experimental default [delta_r = ceil (P * delta_p / R)]:
    the minimum balanced workload. *)

val stage_capacity : t -> int
(** [ceil (delta_r / delta_p)]: the per-stage reviewer workload cap used
    by Stage-WGRAP (Definition 9). *)

val with_scoring : t -> Scoring.kind -> t
(** Same instance under a different scoring function. *)

val with_reviewers : t -> Topic_vector.t array -> t
(** Same instance with rescaled reviewer vectors (e.g. the h-index
    scaling of Eq. 15); dimensions must match. *)

val candidates : t -> k:int -> paper:int -> int array
(** The paper's top-k candidate reviewers by exact pair score, from the
    inverted topic index compiled at construction
    ({!Candidate_index.top_k} under the instance's scoring kind, with
    the paper's COI filtered out so conflicts never burn a candidate
    slot). Ascending reviewer ids; may be shorter than [k] for papers
    whose support touches few reviewers. *)

val candidates_with :
  t -> Candidate_index.scratch -> k:int -> paper:int -> int array
(** {!candidates} in a caller-owned scratch: what a loop retrieving
    many papers' candidates uses, one scratch per task. {!candidates}
    itself builds a fresh scratch per call. *)

val coi_pairs : t -> (int * int) list
(** The instance's conflicts as [(paper, reviewer)] pairs, ordered by
    paper, then reviewer, without duplicates. *)

