(** Checkpoint contracts between the solver stack and a durable store.

    The solvers know nothing about files: {!Sdga.solve} and
    {!Sra.refine} accept a {!sink} of callbacks and offer it a
    {!state} at every natural cut point (each completed SDGA stage, each
    finished SRA round), plus fine-grained improvement {!event}s for a
    write-ahead journal. The durable implementation — atomic snapshot
    files, checksummed journal, crash recovery — lives in
    [Wgrap_persist], which depends on this module and not vice versa.

    A {!state} is everything needed to re-enter the solver chain at the
    captured point and reproduce the uninterrupted run bit for bit:
    the incumbent and working assignments (order-preserving, see
    {!Assignment.to_lines}), the SRA stall counter, the journaled
    incumbent objective, and the raw RNG words. *)

type phase =
  | Sdga_stage of int  (** [k] SDGA stages committed, [delta_p - k] to go *)
  | Sra_round of int  (** [k] SRA rounds finished *)

type state = {
  link : string;
      (** the {!Solver.cra} chain link that produced this state
          (["sdga+sra"] or ["sdga"]); a resumed run re-enters the chain
          there rather than restarting the full chain *)
  phase : phase;
  stall : int;  (** SRA non-improving-round counter; 0 for SDGA states *)
  score : float;
      (** objective of [best] at capture — the journaled incumbent a
          recovered run is certified against *)
  rng : int64 array option;
      (** {!Wgrap_util.Rng.words} at the round boundary; [None] for the
          deterministic SDGA phase *)
  best : Assignment.t;  (** best-so-far (partial while in SDGA) *)
  current : Assignment.t;
      (** SRA's working assignment; equal to [best] outside SRA and on
          improvement rounds *)
}

type event =
  | Stage_done of { stage : int; score : float }
      (** an SDGA stage committed its pairs *)
  | Round_improved of { round : int; score : float }
      (** an SRA round improved the incumbent *)
  | Link_entered of { link : string }
      (** {!Solver.cra} moved to a chain link *)

type sink = {
  on_event : event -> unit;  (** journal append; called at every event *)
  offer : (unit -> state) -> unit;
      (** a snapshot opportunity. The thunk builds the (copied) state
          only if the sink decides to take it — throttled sinks skip the
          copy cost entirely. Must not raise: a failing store disables
          itself rather than killing the solve. *)
}

val with_link : string -> sink -> sink
(** Stamp every offered state with the given chain-link name —
    {!Solver.cra} wraps the caller's sink once per link. *)

val memory : unit -> sink * (unit -> event list) * (unit -> state list)
(** An in-memory sink that takes every offer, plus accessors for what it
    captured (in emission order) — the test harness's kill-point
    recorder. *)

val pp_phase : Format.formatter -> phase -> unit

val event_score : event -> float option
(** The incumbent objective an event journals, if any. *)
