(** Bid-aware assignment — the extension sketched in the paper's
    conclusion ("alternative RAP formulations ... where the quality of
    the assignment depends on both reviewer relevance to the paper
    topics and reviewer preferences based on available bids").

    The blended objective over an assignment A is

    [sum_p ( lambda * c(g_p, p)
             + (1 - lambda) * (sum_{r in g_p} bid(r, p)) / delta_p )]

    The coverage term is submodular (Lemma 4) and the bid term is
    modular, so the blend is submodular and monotone: SDGA's stage
    decomposition keeps its approximation guarantee (Appendix B). *)

type t = private {
  preferences : float array array;  (** [P x R], each in [0, 1] *)
}

val create : float array array -> (t, string) result
(** Validates shape (rectangular) and range. *)

val create_exn : float array array -> t

val random :
  rng:Wgrap_util.Rng.t -> ?sparsity:float -> Instance.t -> t
(** Synthetic bids correlated with topical fit: a reviewer bids high on
    papers it covers well, with noise, and bids on only a [sparsity]
    fraction of papers (default 0.3) — reviewers do not read the whole
    list, which is the very drawback (Section 1) motivating automatic
    assignment. *)

val bid : t -> paper:int -> reviewer:int -> float

val spec : ?lambda:float -> t -> Objective.spec
(** The bid matrix as a first-class objective
    ([Objective.Blend {preferences; lambda}]); [lambda] defaults to 0.7.
    This is the composable form: put it in a {!Ctx.t} and any solver —
    including {!Solver.cra}'s full fallback chain — optimizes the
    blend; [Objective.value] over the bound spec evaluates it, and
    [lambda = 1] is exactly the WGRAP coverage objective. *)

val bid_satisfaction : Instance.t -> t -> Assignment.t -> float
(** Mean assigned-pair bid: how happy reviewers are with what they got. *)
