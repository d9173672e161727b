(** The [wgrap serve] event loop: a single-threaded server keeping one
    solved instance resident and answering line-protocol events with
    minimal re-solves.

    {2 The ack contract}

    For every accepted mutation, in order: parse → validate → {e plan}
    (pure re-solve under the per-event deadline) → {e journal} the
    entry (event + planned ops, fsynced) → {e commit} → respond. The
    response is only written after the journal append returns, so an
    acknowledged event is always durable; a crash at any point loses at
    most un-acknowledged work, and restarting with [--resume] replays
    the journal to a state bit-identical to a fresh fold over the
    acknowledged prefix.

    A journal append failure refuses the event ([err ... journal
    append failed]) — the service degrades to read-only-ish behaviour
    rather than lying about durability, and [health] reports it. A
    commit failure {e after} a successful append indicates a planner
    bug or corrupted memory; the server fail-stops (the un-committed
    entry is rejected by replay certification, so it is as if it never
    happened — it was never acked).

    {2 Degradation and improvement}

    Mutations are planned under [config.event_budget]; a deadline that
    fires mid-solve yields a degraded (but constraint-valid) answer,
    flagged [status=degraded] with a {!Wgrap.Solver.describe_reason}
    detail, and the affected paper is marked pending. Idle loop time is
    spent on bounded improvement slices that repair pending papers;
    each repair is journaled as an [Improve] entry before it is
    applied, preserving replay determinism.

    {2 Responses}

    {v
    ok <id> seq=<n> status=complete|degraded|short [detail="..."]
    ok <id> paper=<p> group=<r1,r2,..|-> score=<s> short=<b> pending=<b>
    ok <id> health=ok|degraded journal=ok|failed|none snapshot=ok|failed|none pending=<n> restarts=<n>
    ok <id> stats {"accepted": <n>, ..., "objective": ..., "coverage": ..., "fairness": ...}
    err <id|-> line=<n> <reason>
    busy <id|-> retry-after=<ms>
    v}

    [stats] answers one compact JSON document (service counters
    followed by the {!Wgrap.Summary.to_json} fields over the committed
    groups, under [config.objective]) on a single line. *)

type config = {
  dim : int;
  delta_p : int;
  delta_r : int;
  objective : Wgrap.Objective.spec;
      (** reporting backend (default coverage): installed into the
          state at construction, it shapes only the [stats] summary,
          never a planned group or the journal format *)
  event_budget : float option;  (** seconds of re-solve per mutation *)
  improve_slice : float;  (** seconds per idle improvement slice *)
  queue_limit : int;  (** admission queue bound *)
  p99_limit_ms : float;  (** latency trip wire *)
  snapshot_every : int;  (** journal entries between snapshots *)
  max_restarts : int;  (** supervisor restart budget *)
  max_line : int;  (** transport line-length bound, bytes *)
  idle_poll : float;  (** seconds to block waiting for input when idle *)
}

val default : dim:int -> delta_p:int -> delta_r:int -> config

type t

val create : ?durable:Durable.t -> config -> (t, string) result
(** Fresh empty server. Without [durable] the server is volatile
    (useful for tests and benchmarks; [health] reports [journal=none]). *)

val of_state : ?durable:Durable.t -> config -> State.t -> t
(** Server around a recovered state (see {!load_state}); installs
    [config.objective] into it. *)

val state : t -> State.t

val handle_line : t -> string -> string
(** Process one raw input line and return the one response line.
    Admission control is the {!run} loop's concern — this path always
    admits. Never raises on hostile input. *)

val improve_once : t -> bool
(** One bounded improvement slice ([config.improve_slice]); journals
    and applies at most one [Improve] entry. Returns [false] when
    there is nothing (more) to improve right now. *)

val run : t -> input:Unix.file_descr -> output:out_channel -> (unit, string) result
(** The event loop over a descriptor (stdin, or an accepted socket
    client): drain available lines through admission, answer in order,
    spend idle time on improvement, snapshot on cadence, final
    snapshot at EOF. A crashed loop iteration is restarted by the
    built-in supervisor — bounded restarts ([config.max_restarts])
    with capped exponential backoff; past the budget, [Error].

    If the output side goes away mid-conversation (EPIPE on a closed
    pipe or socket), the session ends cleanly with [Ok]: journaled
    events stay durable, un-acked lines are dropped for the client's
    at-least-once retry. Callers embedding [run] in a process that has
    not already done so should ignore [SIGPIPE], or the write kills
    the process before the exception can be handled. *)

val serve_socket :
  ?max_clients:int -> t -> path:string -> (unit, string) result
(** Listen on a Unix-domain socket and {!run} accepted clients
    sequentially (the state is shared across connections). Ignores
    [SIGPIPE] for the process, so a client disconnecting mid-response
    ends that client's session instead of killing the service.
    [max_clients] bounds how many connections to serve (for tests and
    soaks); default is to accept until the process dies. *)

val load_state : config -> dir:string -> (State.t * string list, string) result
(** Recover state from a durable directory: certified snapshot (if
    any) plus replay of the verified journal tail. The string list
    carries human-readable recovery notes (torn tail truncated,
    corrupt snapshot ignored and journal refolded, ...).

    Refuses ([Error]) when serving on would lose acknowledged events:
    a CRC-valid journal record the fold cannot decode or commit with
    records stranded behind it (new appends would collide with the
    stranded seqs and be unreachable by every future replay), or a
    snapshot ahead of everything the journal holds (the acked prefix
    is missing). Both need operator intervention, not silent loss. *)

val verify : config -> dir:string -> (string, string) result
(** The soak oracle: fold the whole journal from an empty state and
    independently recover via snapshot + tail replay; [Ok report] iff
    both states are byte-identical under {!State.encode}. A poisoned
    journal or a recovered state ahead of the journal fold (acked
    events lost past a tear) is an [Error], never a skipped check. *)
