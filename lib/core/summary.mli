(** Human-readable reports over a finished assignment — what a program
    chair actually looks at before sign-off. *)

type t = {
  n_papers : int;
  n_reviewers : int;
  coverage_total : float;
  coverage_mean : float;
  coverage_min : float;
  coverage_p10 : float;  (** 10th-percentile paper coverage *)
  coverage_max : float;
  coverage_gini : float;
      (** Gini coefficient of per-paper coverage: 0 = perfectly equal,
          towards 1 = coverage concentrated on few papers *)
  topic_balance : float;
      (** min/max of mean coverage grouped by each paper's dominant
          topic: 1 = every topic community equally served *)
  objective_name : string;  (** {!Objective.name} of the scoring spec *)
  objective_value : float;  (** {!Objective.value} of the assignment *)
  workload_min : int;
  workload_max : int;
  workload_mean : float;
  idle_reviewers : int;  (** reviewers with no papers *)
  coi_violations : int;  (** should be 0 for any library solver *)
}

val compute : ?objective:Objective.spec -> Instance.t -> Assignment.t -> t
(** [objective] (default {!Objective.coverage}) selects the scoring
    backend: [objective_value] is {!Objective.value}; the coverage
    statistics and fairness metrics are the same for every backend. *)

val pp : Format.formatter -> t -> unit
(** Multi-line textual report. *)

val worst_papers : Instance.t -> Assignment.t -> k:int -> (int * float) list
(** The [k] papers with the lowest group coverage, worst first — the
    ones a chair would reassign by hand. *)

val coverage_histogram :
  ?buckets:int -> Instance.t -> Assignment.t -> (float * float * int) array
(** [(lo, hi, count)] buckets over per-paper coverage in [0, 1]. *)

val to_json :
  ?compact:bool ->
  ?extra:(string * string) list ->
  t ->
  string
(** The one JSON rendering of a summary, shared by [wgrap assign
    --json] and [serve stats]. Keys: [papers], [reviewers], [objective
    {name, value}], [coverage {total, mean, min, p10, max}], [fairness
    {gini, topic_balance}], [workload {min, mean, max, idle}],
    [coi_violations]. [extra] prepends caller fields — each
    pair is a raw key and an already-rendered JSON value (the serve
    stats endpoint adds its event counters this way). [compact] emits
    one newline-free line for line-oriented protocols (default: a
    pretty multi-line document). *)

val json_string : string -> string
(** JSON string literal with the usual escapes — exposed so callers
    building [extra] values quote strings consistently. *)
