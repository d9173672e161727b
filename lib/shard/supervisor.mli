(** The shard supervisor: a sharded CRA solve that stays alive through
    per-shard failure.

    {!solve} partitions the papers ({!Partition}), runs one supervised
    task per shard on the context's pool — each task drives the bare
    primary link {!Wgrap.Solver.primary} on its sub-instance — then
    merges ({!Merge}) and runs a round-capped boundary {!Wgrap.Sra}
    pass over the full instance to recover cross-shard quality.

    The supervision ladder, per shard:

    + {b deadline slicing} — every attempt gets
      [min (global remaining / shards, global remaining)] so one stuck
      shard cannot starve the rest;
    + {b bounded retry} — up to [retries] re-attempts with exponential
      backoff and jitter. Backoff jitter and solver seeds come from
      {!Wgrap_util.Rng.split} streams keyed by shard and attempt, so
      the run is deterministic at any job count and every attempt
      replays the {e same} solver stream — which is what makes a
      retried or resumed attempt reproduce the uninterrupted result;
    + {b checkpoint/resume} — with [store_dir] set, each shard
      checkpoints into its own [shard-NNN/] subdirectory through the
      {!Wgrap_persist.Store} contract. A retry resumes the failed
      attempt's certified state instead of restarting, and a completed
      shard freezes its result as a blob that a [resume] run reloads
      bit-identically ([Shard_cached]) without re-solving;
    + {b graceful degradation} — a shard that exhausts its retries
      falls back to the greedy backstop ({!Wgrap.Greedy} +
      {!Wgrap.Repair}); the merged outcome surfaces as [Degraded] with
      one {!Wgrap.Summary.shard_provenance} record per shard, never a
      crash and never a silently dropped shard.

    Every shard result — injected faults included — is validated
    against its sub-instance, and the merge validates again against the
    full instance, so a constraint-violating shard answer is caught
    twice before it can reach the caller. *)

type fault =
  | Crash  (** the attempt raises immediately *)
  | Hang
      (** the attempt sleeps until its deadline (bounded for test
          practicality) and surfaces as a timeout *)
  | Invalid_result
      (** the attempt returns a constraint-violating assignment, which
          per-shard validation must reject *)

type config = {
  retries : int;  (** re-attempts after the first failure (default 2) *)
  backoff_base : float;  (** first-retry backoff seconds (default 0.05) *)
  backoff_cap : float;  (** backoff ceiling in seconds (default 1.0) *)
  boundary_rounds : int;
      (** boundary SRA rounds over the merged assignment; 0 disables
          (default 2). Round-capped and undeadlined, so the pass is
          deterministic and never worse than its input. *)
  cadence : Wgrap_persist.Store.cadence option;
      (** per-shard checkpoint cadence; [None] is the store default *)
  store_dir : string option;
      (** root checkpoint directory; [None] disables durability *)
  resume : bool;
      (** reuse certified checkpoints and frozen shard results under
          [store_dir]. The run refuses ([Infeasible]) when the stored
          manifest disagrees with the current flags or partition. *)
  refine : bool;  (** run the SRA half of each shard solve (default) *)
  inject : (shard:int -> attempt:int -> fault option) option;
      (** chaos hook, fired at attempt entry. Must be pure — it is
          called from worker domains and replayed on resume. *)
  on_shard_event : (shard:int -> Wgrap.Checkpoint.event -> unit) option;
      (** checkpoint-event observer, called on the solving domain after
          the event is journaled — test scaffolding for mid-shard kills *)
}

val default_config : config

val solve :
  ?config:config ->
  ?ctx:Wgrap.Solver.Ctx.t ->
  shards:int ->
  Wgrap.Instance.t ->
  Wgrap.Assignment.t Wgrap.Solver.outcome
  * Wgrap.Summary.shard_provenance list
(** Run the sharded solve. From [ctx]: [deadline] is the global budget
    that attempt slices are cut from, [rng] (or the seed-0 default)
    roots every split stream, [candidates] prunes each shard's gain
    matrix, [objective] selects the scoring backend (recorded in the
    resume manifest, and routing each shard's primary link like
    {!Wgrap.Solver.cra}: SDGA-led only for submodular specs,
    greedy-seeded SRA otherwise), [pool] fans shards out across domains
    (sub-solves stay sequential so any job count is bit-identical).
    Degradation reasons come back in the outcome, in shard order, with
    the boundary pass's last. Specs whose
    parameters are shaped to the whole instance ([Blend]'s preference
    matrix) cannot be re-bound to a paper shard and fail the bind
    fast with [Invalid_argument].

    The outcome is [Complete] when every shard finished its primary
    link fault-free, [Degraded] with the collected reasons otherwise,
    and [Infeasible] only when a shard produced no assignment at all
    (backstop included), the merge could not be made valid, or a
    [resume] manifest mismatched. Never raises. *)
