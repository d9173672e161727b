(** Branch-and-Bound Algorithm for JRA (Section 3, Algorithm 1).

    The search space is the tree of reviewer combinations, explored in
    [delta_p] stages. At each stage, T cursors walk T sorted lists (one
    per topic, reviewers sorted by descending expertise on that topic):

    - {b Branching}: among the reviewers currently under a cursor, the
      one with the largest marginal gain (Definition 8) is expanded
      first.
    - {b Bounding}: the cursor heads upper-bound what any deeper
      extension can still achieve (Eq. 3); a stage whose bound cannot
      beat the best-so-far is abandoned, and because cursor values only
      decrease within a stage, the whole stage is pruned at once.
    - {b Feasibility} (Definition 7): reviewers fully explored at an
      earlier point of the current path are skipped, so every
      combination is examined at most once.

    Exact for every scoring kind (the bound only needs per-topic
    monotonicity, which Lemma 4's conditions give). *)

type stats = {
  nodes : int;  (** reviewers expanded (branch steps) *)
  pruned : int;  (** stages abandoned by the bound *)
}

val solve :
  ?use_bound:bool -> ?deadline:Wgrap_util.Timer.deadline -> Jra.problem ->
  Jra.solution
(** Exact optimum. [use_bound:false] keeps the branching order but
    disables Eq. 3 pruning (ablation). When [deadline] expires mid
    search, the best group found so far is returned instead (anytime
    behaviour); a greedy pick stands in if not even one leaf was
    reached. Never raises on expiry. *)

val solve_counting :
  ?use_bound:bool -> ?deadline:Wgrap_util.Timer.deadline -> Jra.problem ->
  Jra.solution * stats
(** {!solve}, also returning the search counters. The search keeps all
    its state local to the call, so this (like {!solve} and {!top_k}) is
    safe to run from several domains at once. *)

val top_k :
  ?use_bound:bool -> ?deadline:Wgrap_util.Timer.deadline -> Jra.problem ->
  k:int -> Jra.solution list
(** The [k] best groups, best first. With the bound enabled, groups
    tying exactly with the k-th score may be replaced by equal-scoring
    ones. On [deadline] expiry, the (possibly fewer than [k]) incumbents
    found so far are returned. *)
