(** A deliberately generic finite-domain constraint-programming search,
    standing in for the commercial CP solver (IBM ILOG CPLEX CP
    Optimizer) the paper compares BBA against in Section 5.1.

    The model is a fixed number of integer decision variables over a
    shared domain with an optional all-different constraint and an
    optional symmetry-breaking ordering; the objective is a black box
    over complete assignments, optionally pruned through a user-supplied
    optimistic bound on partial assignments. The paper's observation —
    "typical constraint programming techniques are not favorable to the
    group assignment problem due to the lack of a tight upper bound" —
    is reproduced by construction: the default bound is the trivial
    (infinite) one, and even the generic single-step bound used in the
    experiments is far weaker than BBA's cursor bound. *)

type model = {
  arity : int;  (** number of decision variables *)
  domain : int;  (** every variable ranges over [0, domain-1] *)
  all_different : bool;
  symmetry_break : bool;
      (** force strictly increasing assignments; sound when the objective
          is permutation-invariant, as group coverage is *)
}

type outcome =
  | Optimal of int array * float
  | Timed_out of (int array * float) option
  | No_solution

type stats = {
  nodes : int;
  first_solution_time : float option;  (** seconds from search start *)
}

val maximize :
  ?deadline:Wgrap_util.Timer.deadline ->
  ?bound:(int array -> int -> float) ->
  model ->
  score:(int array -> float) ->
  outcome * stats
(** [maximize model ~score] explores assignments depth-first in value
    order. [bound partial depth] must upper-bound the best complete
    extension of [partial] (positions [0, depth-1] are set); branches
    whose bound does not beat the incumbent are pruned.

    The returned {!stats} belong to this call alone: [first_solution_time]
    records when the first feasible leaf was reached, matching the
    paper's "uses 90 ms to return the first feasible assignment group"
    observation. *)
