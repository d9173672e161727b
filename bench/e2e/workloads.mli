(** The four benchmark workloads. Each is a closed loop with one client:
    the next operation starts only after the previous one returned.

    - [cra-dense]: back-to-back {!Wgrap.Solver.cra} on fresh 600 x 60
      synthetic tracks, dense gain matrix — SRA rounds dominate and
      {!Wgrap.Candidate_index} is never consulted.
    - [cra-pruned-k16]: back-to-back {!Wgrap.Solver.cra} on fresh
      4000 x 400 instances over 500 topics with [candidates = 16] —
      candidate retrieval and the streamed Eq. 9 denominators weigh in.
    - [jra-shortlist]: one editor asking, paper after paper, for the
      exact best group from a top-32 shortlist ({!Wgrap.Jra.of_instance}
      then {!Wgrap.Solver.jra}, no deadline) on a 3000 x 2000 instance.
    - [serve-wal]: one client driving {!Wgrap_serve.Server.handle_line}
      with a durable WAL: 60 reviewer joins, then the paper-add-heavy
      event mix, each event acked only after plan, fsync and commit.

    Every operation runs twice and counts the faster run; serve-wal
    sends its second pass to a second fresh server (see README.md). With a trace, the operations of one untraced pass are
    replayed through the layers' own public calls with a span around
    each, and every per-layer metric is derived from those spans. *)

type config = {
  seed : int;  (** every input derives from it *)
  seconds : float;  (** closed-loop measuring time *)
  trace : Harness.Trace.t option;  (** [Some]: the per-layer run *)
  quick : bool;  (** tiny shapes: the test profile *)
  work_dir : string;  (** where the serve WAL directories live *)
}

type result = {
  correct : bool;  (** every correctness gate passed *)
  attempted : int;
  failed : int;  (** operations that errored, were refused or did not complete *)
  metrics : (string * float) list;
      (** every end-to-end metric, or with a trace every per-layer one *)
  samples : (string * int) list;  (** sample count behind a metric *)
  notes : string list;  (** failed gates and other lines for the log *)
}

val run : string -> config -> result
(** Run one workload by name. Raises [Invalid_argument] on an unknown
    name. *)

(** {2 Generators, exposed for the determinism tests} *)

val cra_instance : quick:bool -> pruned:bool -> seed:int -> int -> Wgrap.Instance.t
(** The [i]-th instance a CRA workload solves. *)

val jra_order : seed:int -> int -> int array
(** The order in which [jra-shortlist] asks for the papers of an
    instance with that many papers. *)

val serve_stream : quick:bool -> seed:int -> string list * string list
(** [(joins, events)]: the reviewer joins set-up replays, then the
    event lines the loop sends. *)
