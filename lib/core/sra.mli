(** Stochastic Refinement Algorithm (Section 4.4, Algorithm 3).

    Starting from an assignment (typically SDGA's), each round removes
    one reviewer from every paper — pair (r, p) is removed with
    probability proportional to [1 - P(r|p)], where Eq. 10 gives

    [P(r|p) = max(1/R, exp(-lambda * I) * c(r,p) / sum_p' c(r,p'))]

    (the TF-IDF-like Eq. 9 damped by an exponential decay in the round
    number I) — and refills every paper with one Stage-WGRAP linear
    assignment. The best assignment seen is tracked; the process stops
    when it has not improved for [omega] consecutive rounds (the paper's
    convergence threshold, default 10).

    Both halves read one {!Gain_matrix}: the Eq. 9 denominators are its
    streamed {!Gain_matrix.column_denominators}, and the refill reads
    its rows, which have one layout at every width — a paper's candidate
    list, the identity list over every reviewer on a dense matrix. Only
    the refill's matcher depends on the width (see {!Stage.solve}). *)

type params = {
  omega : int;  (** convergence threshold; paper default 10 *)
  lambda : float;  (** decay rate of Eq. 10; 0.05 by default *)
  max_rounds : int;  (** hard cap, safety net *)
}

val default_params : params

val refine :
  ?params:params ->
  ?on_round:(round:int -> elapsed:float -> best:float -> unit) ->
  ?ctx:Ctx.t ->
  Instance.t ->
  Assignment.t ->
  Assignment.t
(** Returns the best assignment encountered (never worse than the
    input). [on_round] observes each round, for the refinement-over-time
    curves of Figures 12 and 16.

    Run environment comes from [ctx] ({!Ctx.default} when omitted):
    [ctx.rng] drives the removal sampling (a fresh seed-0 generator when
    unset); [ctx.deadline] is polled every round and inside the refill
    stage; [ctx.gains], when set, supplies the Eq. 9 column sums and
    carries gain rows across rounds (its group
    state is rebuilt from scratch each round, so any prior state is
    acceptable — e.g. the matrix {!Sdga.solve} just used); otherwise a
    private matrix is created with [ctx.candidates] as its width. Member
    keep-probabilities ({!keep_probability}) compute their scores on
    demand through the bound objective's coverage component — delta_p
    pairs per paper per round; on a candidate-pruned matrix refill
    stages run the pruned {!Stage.solve} backend.

    [ctx.objective] is bound and consulted throughout: removal
    keep-probabilities use its pure coverage component
    ({!Objective.coverage_score} — removal models topical misfit),
    refill stages apply its {!Objective.stage_gain} transform, and
    acceptance/best-so-far tracking uses {!Objective.value}. SRA makes
    no submodularity assumption, so every backend (including min) may
    use it.

    [ctx.checkpoint] receives a {!Checkpoint.Round_improved} event on
    every improving round and a snapshot offer at every round boundary
    (best, current, stall counter, round number and live RNG words).
    [ctx.resume_from], when [Ok state] in phase {!Checkpoint.Sra_round},
    overrides the [start] argument entirely: best/current/stall/round
    are restored from the state, and — provided the caller also restores
    the context's rng from [state.rng] via {!Wgrap_util.Rng.of_words} —
    the refinement replays the uninterrupted run's remaining rounds
    exactly. A state in any other phase is ignored. [ctx.pool] is {e
    not} consulted: the refinement is one sequential chain (Alg. 3), so
    its result is the same at every job count. *)

val keep_probability :
  denom:float array ->
  score:float ->
  round:int ->
  lambda:float ->
  reviewer:int ->
  float
(** Eq. 10 for one pair: the probability that pair (r, p) is {e
    correct} (high means keep), given its single-reviewer score [c(r,p)]
    ({!Lap.Hungarian.forbidden} for a COI pair, which keeps only the
    [1/R] floor) and the Eq. 9 denominators [denom] from
    {!Gain_matrix.column_denominators}, one per reviewer. *)
