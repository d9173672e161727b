(** Atomic snapshot files: write-to-temp + fsync + rename on the way
    out, CRC/version verification on the way in. *)

type error =
  | Missing  (** no file at the path — a fresh run, not a failure *)
  | Corrupt of string  (** unreadable, torn, checksum or decode failure *)

val write :
  fingerprint:Codec.fingerprint -> path:string -> Wgrap.Checkpoint.state -> unit
(** Atomically replace [path] with the encoded state, pinned to the run
    [fingerprint] ({!Blob.replace}).
    Raises [Unix.Unix_error] / [Sys_error] on I/O failure — callers
    ({!Store}) degrade by disabling checkpointing, never by killing the
    solve. *)

val read : string -> (Codec.fingerprint * Wgrap.Checkpoint.state, error) result
(** Read and fully verify a snapshot: the run fingerprint it was written
    under, and the state. Never raises on bad content. *)

val error_message : error -> string
