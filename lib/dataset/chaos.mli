(** Deterministic fault injection for the robustness suite.

    Every corruption is a pure function of an explicit {!Wgrap_util.Rng}
    stream, so a failing property test reproduces from its seed alone.
    Three fault families match the three trust boundaries the library
    has: TSV rows entering {!Loader}, topic-vector matrices entering
    {!Pipeline.instance_checked} / {!Wgrap.Instance.create}, and
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

(** {2 Shard-granular faults}

    The trust boundary added by the shard supervisor
    ([Shard.Supervisor]): a whole solver task misbehaving. Each shape
    matches one rung of the supervision ladder — a crash the retry
    policy must absorb, a hang the per-attempt deadline must cut, and a
    constraint-violating result the per-shard validation and merge
    checks must reject. *)

type shard_fault =
  | Shard_crash  (** the shard task raises at attempt entry *)
  | Shard_hang  (** the shard task sleeps until its attempt deadline *)
  | Shard_invalid  (** the shard returns a constraint-violating result *)

val shard_faults : shard_fault list
val shard_fault_name : shard_fault -> string
val shard_fault_of_name : string -> shard_fault option

val shard_plan :
  rng:Wgrap_util.Rng.t ->
  shards:int ->
  faults:shard_fault list ->
  shard:int ->
  attempt:int ->
  shard_fault option
(** A deterministic chaos plan on its own split stream: per shard,
    roughly 60% fault the first attempt and 40% of those also fault the
    second; attempts from the third on are always clean, so a
    supervisor with [retries >= 2] still reaches a real solve on every
    shard. The plan is an eager pure lookup — safe to query from any
    domain, and a resumed process derives the identical plan from the
    same seed. *)

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
    {!Loader}'s reader for round-tripping corrupted files. *)
