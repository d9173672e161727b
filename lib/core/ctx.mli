(** The unified solver run context — re-exported as {!Solver.Ctx}.

    PRs 1–3 grew a four-way cross-product of per-solver optional
    arguments ([?deadline ?gains ?checkpoint ?resume_from], and the
    multicore work would have added [?pool]). A {!t} packs all of them
    into one record that is threaded through every entry point as a
    single [?ctx] argument; it is also the documented extension point —
    a new piece of run environment becomes a field here, not another
    optional argument on fourteen signatures.

    Every field is optional with a conservative default: [Ctx.default]
    (equivalently [Ctx.make ()]) runs unbudgeted, sequentially, seeded
    from 0, without checkpoints. Set only what a run needs:

    {[
      Solver.cra ~ctx:(Ctx.make ~budget:30. ~pool:(Wgrap_par.Pool.create ~jobs:8) ()) inst
    ]}

    A context is one {e run}'s environment. The [rng] field is a live,
    mutable generator: reusing one context across several solves
    continues its stream (build a fresh context, e.g. [Ctx.make ~seed:7
    ()], when runs must be independently reproducible). *)

type t = {
  deadline : Wgrap_util.Timer.deadline option;
      (** wall-clock budget every link polls; [None] = unbudgeted *)
  rng : Wgrap_util.Rng.t option;
      (** randomness source for stochastic links (SRA); [None] = a fresh
          seed-0 generator per solve *)
  gains : Gain_matrix.t option;
      (** shared incremental gain matrix; [None] = each solver builds a
          private one *)
  candidates : int;
      (** per-paper candidate width k for the matrices solvers build
          themselves ([gains = None]): [0] = dense (the default, the
          parity oracle), [k > 0] = candidate-pruned rows over the
          instance's inverted topic index ([k >= n_r] normalizes to
          dense). Ignored when [gains] is set — a supplied matrix
          carries its own backing. *)
  checkpoint : Checkpoint.sink option;
      (** durable-state sink (journal events + snapshot offers) *)
  resume_from : (Checkpoint.state, string) result option;
      (** [Ok state]: re-enter the chain at the captured point;
          [Error msg]: a checkpoint was offered but failed load
          certification — run fresh and report {!Solver.Stale_checkpoint} *)
  pool : Wgrap_par.Pool.t option;
      (** domain pool for the path whose result it cannot change
          (gain-matrix rebuilds); [None] = sequential *)
  objective : Objective.spec;
      (** the objective every solver entered through this context binds
          and scores against; defaults to {!Objective.coverage} (the
          paper's Eq. 9, bit-identical to the pre-objective path). *)
}

val default : t
(** All fields [None]: unbudgeted, sequential, fresh seed-0 randomness,
    no checkpointing. *)

val make :
  ?deadline:Wgrap_util.Timer.deadline ->
  ?budget:float ->
  ?rng:Wgrap_util.Rng.t ->
  ?seed:int ->
  ?gains:Gain_matrix.t ->
  ?candidates:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume_from:(Checkpoint.state, string) result ->
  ?pool:Wgrap_par.Pool.t ->
  ?objective:Objective.spec ->
  unit ->
  t
(** Labelled constructor. [budget] is shorthand for a fresh deadline of
    that many seconds ([deadline] wins when both are given); [seed] for
    [rng:(Rng.create seed)] ([rng] wins). [objective] defaults to
    {!Objective.coverage}. *)

(** {2 Accessors used by the solver implementations} *)

val rng_or : seed:int -> t -> Wgrap_util.Rng.t
(** The context's generator, or a fresh [Rng.create seed]. *)

