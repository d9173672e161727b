(** The durable checkpoint store: one directory holding an atomic
    snapshot ([snapshot.wck]) and an append-only write-ahead journal
    ([journal.wal]), glued to the solver stack through a
    {!Wgrap.Checkpoint.sink}.

    Write path: every journal event is appended and fsynced as it
    happens; snapshot offers are taken immediately after an improvement
    (keeping snapshot and journaled incumbent in lock-step) and
    otherwise throttled by the configured {!cadence}. All I/O is
    best-effort — a failing disk disables the store with a stderr
    warning and the solve continues un-checkpointed.

    Read path ({!load}): CRC + version verification, the run
    fingerprint check ({!run}), constraint
    re-validation of the recovered assignments against the live
    instance, recomputation of the recorded objective value under the
    run's objective within 1e-9, and a staleness
    cross-check against the journal. A checkpoint that fails any of
    these is reported, never resumed — the caller (see
    {!Wgrap.Solver.cra}'s [resume_from]) degrades to a fresh run
    carrying a [Stale_checkpoint] reason. *)

type cadence =
  | Every_seconds of float  (** wall-clock throttle (default 5 s) *)
  | Every_rounds of int  (** snapshot every [n]-th offer *)

type run = {
  objective : Wgrap.Objective.spec;
  candidates : int;  (** the candidate width, [ctx.candidates] *)
  refine : bool;  (** whether {!Wgrap.Solver.cra} runs SRA *)
}
(** What a run's result depends on beyond the instance and its seed.
    Every snapshot records its run's {!fingerprint}, and {!load}
    resumes only a checkpoint of the same run. The job count is not
    part of it: {!Wgrap.Solver.cra} writes the same result and the same
    checkpoints at any job count, so a run killed at one job count
    resumes at another. *)

val fingerprint : run -> Codec.fingerprint
(** The fields a snapshot records, in order: [objective] (the
    objective's name, plus an MD5 over its [%h]-printed payload for
    [blend]), [candidates] and [refine]. *)

type t

val open_ :
  ?cadence:cadence -> ?fresh:bool -> run:run -> dir:string -> unit -> t
(** Create/open the store directory (made with parents as needed); the
    snapshots it writes are pinned to [run].
    [fresh] (default false) deletes any existing snapshot and journal
    first — use it when starting a run from scratch so a later resume
    cannot see a previous run's incumbents. Raises on I/O errors at
    open time only; after that the store degrades silently. *)

val sink : t -> Wgrap.Checkpoint.sink
(** The sink to pass to {!Wgrap.Solver.cra}. *)

val close : t -> unit

val is_disabled : t -> bool
(** Whether the store has degraded to a no-op after an I/O failure (a
    failed journal append or snapshot fsync). Batch solves may ignore
    this — checkpointing there is strictly best-effort — but service
    mode must not: a disabled store means the last snapshot offer was
    {e not} taken, and treating it as taken would violate the
    durability contract. [Wgrap_serve] reports this through its
    [health] response instead of trusting the sink silently. *)

type load_error =
  | No_checkpoint  (** nothing stored — just run fresh, no reason to report *)
  | Invalid of string
      (** corrupt, stale or failed certification — run fresh and report
          the message as a [Stale_checkpoint] reason *)

val load :
  dir:string ->
  run:run ->
  Wgrap.Instance.t ->
  (Wgrap.Checkpoint.state, load_error) result
(** Recover and certify the stored state (see module docs) for [run].
    A snapshot whose recorded fingerprint differs from [run]'s is
    reported [Invalid] with a reason naming the first differing field
    (["candidates mismatch: checkpoint has 16, run has 32"]), never
    resumed. The snapshot's score must also equal
    [Objective.value (Objective.bind run.objective inst)] of its best
    assignment ("objective mismatch" otherwise). *)

val load_error_message : load_error -> string

val snapshot_path : string -> string
(** [snapshot_path dir] — exposed for tests, fault injection and the
    CLI inspector. *)

val journal_path : string -> string
