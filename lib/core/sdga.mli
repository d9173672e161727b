(** Stage Deepening Greedy Algorithm (Section 4.2, Algorithm 2).

    The assignment is built in exactly [delta_p] stages; each stage
    gives every paper one more reviewer by solving a Stage-WGRAP linear
    assignment, with the per-stage reviewer workload confined to
    [ceil(delta_r / delta_p)] so that every reviewer stays available in
    the tail stages.

    Guarantees (Theorems 1-2): the result is a (1 - 1/e)-approximation
    when [delta_p] divides [delta_r], and a 1/2-approximation in
    general — for any scoring function satisfying Lemma 4. *)

val solve : ?ctx:Ctx.t -> Instance.t -> Assignment.t
(** Run environment comes from [ctx] ({!Ctx.default} when omitted):

    - [ctx.gains], when set, is reset and used as the shared gain matrix
      for every stage (and left holding the final groups, so a follow-up
      {!Sra.refine} can reuse it); otherwise a private one is created
      with [ctx.candidates] as its width — [k > 0] selects the
      candidate-pruned backing, switching every stage to the pruned
      {!Stage.solve} backend with O(n_p * k) matrix memory; [0] (the
      default) is the dense parity oracle.
    - [ctx.deadline] is checked between stages and inside the stage
      backend; on expiry the stages completed so far are kept and the
      remaining slots are filled greedily by {!Repair}, so the result
      stays feasible — degraded towards per-slot greedy rather than
      failing.
    - [ctx.checkpoint] receives a {!Checkpoint.Stage_done} event and a
      snapshot offer after every committed stage.
    - [ctx.resume_from] (when [Ok state] in phase
      {!Checkpoint.Sdga_stage}) re-enters the stage loop after the
      captured stage: the saved partial assignment is copied in,
      reviewer workloads and the gain matrix are rebuilt from it, and
      the remaining stages run as they would have — the result is
      identical to the uninterrupted run (stages are deterministic). A
      resume in any other phase (or an [Error _]) is ignored and the
      solve starts fresh.
    - [ctx.pool], when parallel, prefills all stale gain rows across
      domains ({!Gain_matrix.rebuild}) before the stage loop; the stage
      LAPs themselves stay sequential. Bit-identical at any job count.
    - [ctx.objective] is bound to the instance and consulted for every
      stage gain ({!Objective.stage_gain}) and checkpoint score
      ({!Objective.value}); the default coverage objective is
      bit-identical to the pre-objective path. Note SDGA's guarantee
      only holds when the objective is submodular —
      {!Solver.cra} routes non-submodular specs (min) through a
      greedy-led chain instead.

    Raises [Failure] only if the instance is infeasible under its COIs
    (capacity alone is validated at instance construction). Every stage
    is one {!Stage.solve} call on the shared gain matrix. *)

val approximation_ratio : delta_p:int -> integral:bool -> float
(** The analytic bound plotted in Figure 7:
    [1 - (1 - 1/delta_p)^delta_p] for integral cases ([delta_p] divides
    [delta_r]), [1 - (1 - 1/delta_p)^(delta_p - 1)] otherwise. *)
