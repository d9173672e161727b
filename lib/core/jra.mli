(** The Journal Reviewer Assignment problem (Definition 6): pick the
    group of [group_size] reviewers from a pool that maximizes the
    coverage of a single paper. Shared types for the exact solvers: BBA
    and ILP here, and the paper's BFS and CP baselines in
    [wgrap_baselines]. *)

type problem = {
  paper : Topic_vector.t;
  pool : Topic_vector.t array;  (** candidate reviewers *)
  group_size : int;  (** delta_p *)
  scoring : Scoring.kind;
  excluded : bool array option;
      (** reviewers that may not be chosen (conflicts of interest, or
          exhausted workloads when called from CRA solvers) *)
  ids : int array option;
      (** [ids.(i)] is the caller's id of pool entry [i] (an instance
          reviewer id, say); [None] when pool positions are the ids *)
}

type solution = {
  group : int list;  (** the caller's reviewer ids, ascending *)
  score : float;
}

val make :
  ?scoring:Scoring.kind ->
  ?excluded:bool array ->
  ?ids:int array ->
  paper:Topic_vector.t ->
  pool:Topic_vector.t array ->
  group_size:int ->
  unit ->
  problem
(** Validates shapes; raises [Invalid_argument] if the pool (net of
    exclusions) is smaller than [group_size], or if [excluded] or [ids]
    does not match the pool's length. *)

val of_instance : ?candidates:int -> Instance.t -> paper:int -> problem
(** JRA sub-problem for one paper of a WGRAP instance. Solutions name
    instance reviewer ids either way.

    [candidates = k] with [0 < k < n_reviewers] restricts the search to
    the paper's {!Instance.candidates} top-[k] shortlist. Under [c],
    [cP] and [cD] the problem is compact: its pool is the shortlist
    alone, conflicted reviewers dropped (so [excluded = None]), every
    vector is projected onto the paper's support
    ({!Instance.paper_support}'s [idx]), and [ids] maps each pool
    position back to its instance id. Scores are exact bit for bit:
    f(v, 0) = 0 under these kinds, and the projected sums add the same
    nonzero terms in the same order. Under [cR], which credits
    off-support expertise, the shortlist instead masks the dense pool.

    [0] (the default), [k >= n_reviewers], or a shortlist shorter than
    [group_size] (tiny k or heavy COIs) give the dense pool with the
    paper's COIs as exclusions, rather than an infeasible problem. *)

val available : problem -> int
(** Number of selectable reviewers. *)

val solution : problem -> int list -> float -> solution
(** [solution t members score]: the result for the group of pool
    positions [members] scoring [score], its group mapped through
    [t.ids] and sorted. Every JRA solver builds its answers this way. *)

val score_group : problem -> int list -> float
(** Coverage of an explicit group of pool positions, which are caller
    ids only when [ids = None] (no feasibility checks). *)

val greedy : problem -> solution
(** Single greedy pass: [group_size] picks by descending marginal gain,
    O(group_size * R * T). Not exact — this is the last link of the
    anytime fallback chain ({!Solver}) and the incumbent of last resort
    when an exact solver's deadline fires before its first leaf. *)
