(** The small JSON subset the benchmark reads and writes: its own result
    files, the machine-readable result line, and [BENCHMARK.json]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict RFC 8259 parse of one document (surrounding whitespace
    allowed). [\u] escapes outside the Basic Multilingual Plane are
    rejected. *)

val to_string : t -> string
(** Compact one-line rendering. Numbers print with all 17 significant
    digits; a non-finite number raises [Invalid_argument], because JSON
    cannot carry it. *)

val member : string -> t -> t option
(** Field lookup on an object; [None] on a missing key or a non-object. *)

val to_num : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
