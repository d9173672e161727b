(** Atomic snapshot files: write-to-temp + fsync + rename on the way
    out, CRC/version verification on the way in. *)

type error =
  | Missing  (** no file at the path — a fresh run, not a failure *)
  | Corrupt of string  (** unreadable, torn, checksum or decode failure *)

val write : path:string -> Wgrap.Checkpoint.state -> unit
(** Atomically replace [path] with the encoded state ({!Blob.replace}).
    Raises [Unix.Unix_error] / [Sys_error] on I/O failure — callers
    ({!Store}) degrade by disabling checkpointing, never by killing the
    solve. *)

val read : string -> (Wgrap.Checkpoint.state, error) result
(** Read and fully verify a snapshot. Never raises on bad content. *)

val error_message : error -> string
