(** Deterministic fault injection for the robustness, persistence and
    service suites.

    Every corruption is a pure function of an explicit {!Wgrap_util.Rng}
    stream, so a failing property test reproduces from its seed alone.
    Three fault families match the three trust boundaries the library
    has: TSV rows entering {!Dataset.Loader}, topic-vector matrices
    entering {!Dataset.Pipeline.instance_checked} /
    {!Wgrap.Instance.create}, and
    conflict structure entering the solvers. *)

type tsv_fault =
  | Truncate_line  (** cut one line short at a random byte *)
  | Duplicate_id  (** copy one row's id field onto another row *)
  | Garbage_field  (** replace one field with non-numeric junk *)
  | Blank_line  (** insert an empty line mid-file *)
  | Crlf_endings  (** terminate every line with CRLF *)

val tsv_faults : tsv_fault list

type vector_fault =
  | Nan_entry  (** one weight becomes NaN *)
  | Inf_entry  (** one weight becomes +inf *)
  | Negative_entry  (** one weight goes negative *)
  | Zero_row  (** one whole vector loses all mass *)

val vector_faults : vector_fault list

val corrupt_lines : rng:Wgrap_util.Rng.t -> tsv_fault -> string list -> string list
(** Apply one fault to a file's lines (no trailing newlines). The
    victim line/field is drawn from [rng]; empty input is returned
    unchanged. *)

val poison :
  rng:Wgrap_util.Rng.t -> vector_fault -> float array array -> float array array
(** A fresh copy of the matrix with one row degraded. *)

(** {2 Event-stream faults}

    The trust boundary added by [wgrap serve]: hostile or damaged event
    streams — client protocol lines on the way in, journal records on
    the way back. Each shape matches a real failure the service
    contract must absorb: torn client writes, duplicate deliveries,
    reordered ids, bit rot, and the SIGKILL-mid-append tail. *)

type event_fault =
  | Truncated_event  (** cut one event line short at a random byte *)
  | Duplicated_event  (** replay one event line verbatim later *)
  | Out_of_order_id  (** swap two event lines (ids arrive out of order) *)
  | Corrupt_payload  (** flip one bit inside a line (never forging '\n') *)
  | Mid_event_kill
      (** kill -9 mid-append: one line torn partway, nothing after it *)

val event_faults : event_fault list

val corrupt_events :
  rng:Wgrap_util.Rng.t -> event_fault -> string list -> string list
(** Apply one fault to an event stream's lines (no trailing newlines).
    The victim is drawn from [rng]; empty input is returned unchanged. *)

val corrupt_event_stream :
  rng:Wgrap_util.Rng.t ->
  faults:event_fault list ->
  string list ->
  string list
(** Apply several faults in order, each drawing from its own
    {!Wgrap_util.Rng.split} stream — adding or removing a fault from
    [faults] does not perturb where the others strike, so a failing
    seed stays minimal and reproducible. *)

type file_fault =
  | Torn_write  (** drop everything after a random byte offset *)
  | Truncate_tail  (** lose a short suffix (a lost last record) *)
  | Bit_flip  (** flip one random bit anywhere in the file *)
  | Disk_full
      (** the shape ENOSPC leaves behind: the final record cut mid-line,
          everything before it byte-intact — replay must keep the
          committed prefix and refuse only the torn tail *)

val file_faults : file_fault list

val corrupt_bytes : rng:Wgrap_util.Rng.t -> file_fault -> string -> string
(** Apply one byte-level fault to a file image. Empty input is returned
    unchanged. Pure — the fault site is drawn from [rng] — so the
    kill/resume property suite can corrupt in-memory encodings before
    they ever touch disk. Targets both TSV inputs and the
    [Wgrap_persist] snapshot/journal files. *)

val corrupt_file : rng:Wgrap_util.Rng.t -> file_fault -> string -> unit
(** {!corrupt_bytes} applied in place to a file on disk. *)

val dense_coi :
  rng:Wgrap_util.Rng.t ->
  n_papers:int ->
  n_reviewers:int ->
  density:float ->
  (int * int) list
(** Each (paper, reviewer) pair independently becomes a conflict with
    probability [density]. At high density this manufactures instances
    where feasibility itself is in question — the {!Wgrap.Solver}
    harness must answer [Infeasible] rather than return an invalid
    assignment. *)

val write_lines : string -> string list -> unit
(** Write lines to a file, newline-terminated — the counterpart of
    {!Dataset.Loader}'s reader for round-tripping corrupted files. *)
