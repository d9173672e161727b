(** Shared machinery of the end-to-end benchmark: the metric catalog,
    the statistics rules every reported number follows, the in-memory
    span recorder behind [--trace 1], the host record, and the result
    formats [wgrap_bench] writes and [compare] reads. *)

(** {1 Metric catalog}

    The one list of metrics, with their units, directions and bounds;
    the tests check that [BENCHMARK.json] declares exactly these. Every
    run reports every end-to-end metric ([--trace 0]) or every
    per-layer metric ([--trace 1]); a layer a workload never calls
    reads 0. *)

type metric = {
  name : string;
  unit : string;
  higher_better : bool;
  bound : float option;
      (** how far the median may worsen, as a share of the parent's;
          [None] for per-layer metrics *)
  exact_on : string list;
      (** workloads on which the metric is a pure function of the seed:
          there {!paired_verdict} judges it, not [bound] *)
}

val workloads : string list
val end_to_end : metric list
val per_layer : metric list

(** {1 Statistics} *)

val median : float array -> float
val percentile : float array -> float -> float
(** Linear interpolation between order statistics, [q] in [0, 1];
    [nan] on an empty array. *)

val tail_quantile : want:float -> int -> float option
(** The percentile rule: the highest of p99, p95, p90, p75 and p50 that
    is at most [want] and has at least ten of the [n] samples beyond
    it; [None] when even the median has fewer than ten beyond. *)

val tail : want:float -> float array -> float * float
(** [(value, q)]: the [want] quantile, lowered by {!tail_quantile} to
    the highest one the sample count supports (the median when none
    does). [q] is the quantile actually reported. *)

val quartiles : float array -> float * float * float
(** [(q1, median, q3)] exactly as Python's
    [statistics.quantiles(values, n=4)] (the "exclusive" method) gives
    them — the definition the spread acceptance is judged by. A single
    sample is its own quartiles. Raises [Invalid_argument] on an empty
    array. *)

type verdict = Better | Worse | Unchanged | Unresolved

val verdict_name : verdict -> string

val verdict :
  higher_better:bool -> bound:float -> base:float array -> head:float array -> verdict
(** One (metric, workload) cell of a parent-vs-change comparison;
    [base.(i)] and [head.(i)] are paired runs (same seed) where both
    exist. [Worse]: the head median is worse than the base median by
    more than [bound] (a share of the base median). [Better]: the head
    wins at least nine tenths of the pairs (ties count for neither) and
    the medians differ by more than the base interquartile distance —
    or, when the spread is wider than the bound, every head run beats
    every base run. [Unresolved]: either side's interquartile spread is
    wider than [bound]. [Unchanged] otherwise. *)

val exact_tolerance : float

val paired_verdict :
  higher_better:bool -> base:(int * float) list -> head:(int * float) list -> verdict
(** A cell whose value a seed fixes exactly, from [(seed, value)] runs
    paired by seed; the spread across seeds is instance diversity, not
    noise, so it does not widen the bound. [Worse]: any pair loses more
    than {!exact_tolerance} relative. [Better]: at least nine tenths of
    the pairs gain more than that. [Unresolved]: no seed in common.
    [Unchanged] otherwise. *)

(** {1 Tracing} *)

module Trace : sig
  type span = {
    name : string;
    trace_id : int;  (** one per operation: op index or event id *)
    span_id : int;
    parent : int;  (** [-1] for a root span *)
    start_ns : int;
    end_ns : int;
    attrs : (string * string) list;
  }

  type t

  val create : unit -> t

  val set_trace : t -> int -> unit
  (** Trace id for the spans opened from now on. *)

  val span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** Time [f ()] as a child of the innermost open span. The span is
      recorded even when [f] raises. *)

  val mark : t -> string -> start:float -> stop:float -> unit
  (** Record an already-finished child of the innermost open span from
      two {!Wgrap_util.Timer.now} readings — for phases only a callback
      can see (SDGA stages, SRA rounds). *)

  val spans : t -> span list
  (** Everything recorded, in start order. *)

  val self_ns : span list -> (span * int) list
  (** Each span with its self time: its duration minus the part of it
      that the union of its children's intervals covers. *)

  val durations : ?attr:string * string -> span list -> string -> float array
  (** Seconds of every span with this name (and attribute), in start
      order. *)

  val per_trace : span list -> string -> float array
  (** Seconds spent in spans of this name, summed per trace, one entry
      per trace that has any. *)

  val write_jsonl : span list -> string -> unit
  (** One JSON object per span (with its self time), one per line. *)
end

(** {1 Host and process} *)

type host = { nproc : int; ocaml : string; commit : string }

val host : unit -> host
(** The commit is read from the checkout's [.git/HEAD]; ["unknown"]
    outside a git checkout. *)

val host_json : host -> Json.t
(** The host, plus [jobs = 1]: every workload runs sequentially. *)

val proc_status_kb : string -> int option
(** A [kB] field of [/proc/self/status] ([VmHWM], [VmRSS]); [None] off
    Linux. *)

(** {1 Results} *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> (string * float * string) list -> string
(** The machine-readable last line of stdout: exactly the keys [correct],
    [attempted], [failed] and [metrics] ([name -> {value, unit}]). *)

val read_result : string -> (string * int * (string * float) list, string) result
(** [(workload, seed, metrics)] from a result file written by
    [wgrap_bench]. *)
