(** Anytime solver harness: fallback chains under a wall-clock budget.

    Every entry point here upholds one contract: given any instance (or
    JRA problem) and any time budget, it returns within roughly the
    budget, never raises, and — when it returns a result at all — the
    result satisfies every hard constraint (group sizes, workloads,
    conflicts of interest, checked with {!Assignment.validate}). Quality
    is what degrades under pressure, never feasibility.

    Each runner walks a chain of solvers from strongest to cheapest:

    - JRA: branch-and-bound ({!Jra_bba}) -> greedy pick ({!Jra.greedy});
    - CRA, submodular objectives (coverage, blend): SDGA +
      stochastic refinement ({!Sdga}, {!Sra}) -> SDGA alone -> per-stage
      greedy ({!Greedy}), with {!Repair.complete} patching any short
      groups left by a truncated run;
    - CRA, non-submodular objectives (min — [ctx.objective] routes the
      ladder): greedy seed + stochastic refinement -> greedy alone.
      SDGA is skipped because its guarantee rests on Lemma 4.

    A link that finishes exhaustively yields {!Complete}. A link that is
    cut off by the deadline, or that fails and is replaced by a weaker
    fallback, yields {!Degraded} with machine-readable reasons. Only
    when no link can produce a constraint-valid result — an instance so
    tight that even greedy completion has no feasible chain — does the
    harness answer {!Infeasible}. *)

module Ctx = Ctx
(** The unified run context every entry point takes as [?ctx]; see
    {!Ctx.t} for the fields and {!Ctx.make}. *)

type reason =
  | Timeout of { link : string }
      (** [link] hit the deadline and returned (or was replaced by) a
          possibly sub-optimal incumbent. *)
  | Fault of { link : string; error : string }
      (** [link] raised or produced a constraint-violating result;
          [error] is the message plus the raised backtrace when
          [Printexc.backtrace_status ()] is on. The chain moved on. *)
  | Stale_checkpoint of { error : string }
      (** a checkpoint offered for resumption failed recovery
          certification (corrupt file, stale snapshot, objective
          mismatch); the run started fresh instead. *)

type 'a outcome =
  | Complete of 'a  (** strongest applicable link finished in budget *)
  | Degraded of 'a * reason list
      (** still constraint-valid, but truncated or from a fallback;
          reasons are in chain order *)
  | Infeasible of string  (** no link produced a feasible result *)

val value : 'a outcome -> 'a option
(** The payload of [Complete] or [Degraded], [None] for [Infeasible]. *)

val status : 'a outcome -> string
(** ["complete"], ["degraded"] or ["infeasible"] — for logs and the CLI
    exit-code mapping. *)

val reasons : 'a outcome -> reason list

val pp_reason : Format.formatter -> reason -> unit

val describe_exn : exn -> string
(** The text stored in {!Fault} reasons: the exception message
    ({!Wgrap_util.Timer.Expired} reads ["deadline expired"]), followed
    by the recorded backtrace when [Printexc.backtrace_status ()] is on
    and a backtrace is available. Exposed for tests and for callers
    building their own fault summaries. *)

val describe_reason :
  ?event:int -> ?deadline:Wgrap_util.Timer.deadline -> reason -> string
(** {!pp_reason} as text, optionally stamped with the service event
    that triggered the re-solve and the milliseconds remaining on its
    deadline — e.g. ["jra-bba: deadline expired [event=42
    deadline-remaining=3ms]"]. This is the degradation line `wgrap
    serve` returns and quarantines: a service answer must be
    attributable to one event without correlating logs. *)

val jra : ?ctx:Ctx.t -> Jra.problem -> Jra.solution outcome
(** Best reviewer group for one paper, in the problem's caller ids
    ({!Jra.solution}). Branch-and-bound runs on the whole remaining
    budget: the outcome is [Complete] exactly when it finishes, and
    [Degraded] with a ["jra-bba"] [Timeout] and its best incumbent (a
    greedy pick if it reached no leaf) when the deadline fires. The
    greedy pick also backstops a BBA fault. Never raises. *)


val cra : ?refine:bool -> ?ctx:Ctx.t -> Instance.t -> Assignment.t outcome
(** Full conference assignment. The primary link runs SDGA on half the
    remaining budget and spends the rest on stochastic refinement
    ([ctx.rng] — or its default fresh seed-0 generator — makes the
    refinement reproducible; [refine:false] drops the SRA half and gives
    SDGA the whole budget); fallbacks are SDGA alone, then per-stage
    greedy. Every candidate is checked with {!Assignment.validate} and,
    when a truncated run left short groups, completed with
    {!Repair.complete} before being accepted. Never raises.

    [ctx.pool], when parallel, lets the SDGA/greedy links prefill their
    gain rows across domains ({!Gain_matrix.rebuild}). It never changes
    the result: the refinement is one sequential {!Sra.refine} chain at
    every job count, so a run's output, and the checkpoints it writes,
    are the same at any job count.

    [ctx.checkpoint] threads a durable-state sink through the chain:
    each link stamps its name on offered snapshots
    ({!Checkpoint.with_link}) and link transitions are journaled as
    {!Checkpoint.Link_entered}.

    [ctx.resume_from] restarts an interrupted run. [Ok state] (a
    snapshot already certified by the loader, e.g.
    [Wgrap_persist.Store.load]) re-enters the chain at the link that was
    interrupted — mid-SDGA states replay the remaining stages, mid-SRA
    states restore the RNG from the snapshot and replay the remaining
    rounds, so an unbudgeted resumed run reproduces the uninterrupted
    run's result exactly. [Error msg] (the loader rejected the
    checkpoint) runs the full chain fresh and reports
    {!Stale_checkpoint} in the outcome's reasons — a bad checkpoint
    degrades, it never lies.

    [ctx.gains], when set, is used as the chain's shared gain matrix
    instead of a private one. Degradation reasons reach the caller only
    through the outcome, in the order they were recorded.

    [ctx.objective] selects the ladder (see the module preamble) and is
    threaded into every link; with the default coverage objective the
    chain, its link names and its results are bit-identical to the
    pre-objective API. *)
