(** Atomic, CRC-trailered text blobs.

    The generic half of the {!Snapshot} discipline for durable state
    that is not a solver checkpoint: the full image goes to a temp file
    in the same directory, is fsynced, then renamed over the live path,
    and a trailing [crc <hex>] line covers every preceding byte. The
    service snapshot of [Wgrap_serve] is stored this way. *)

type error = Missing | Corrupt of string

val replace : op:string -> path:string -> string -> unit
(** Atomically replace [path] with exactly these bytes: write them to
    [path ^ ".tmp"], fsync, rename over [path], then fsync the
    directory so the rename itself survives a power loss. On any
    failure the temp file is removed, [path] is left untouched and the
    exception is re-raised — an out-of-space failure as
    {!Persist_error.Disk_full} labelled with [op]. The one writer behind
    {!write} and [Snapshot.write]. *)

val write : path:string -> string -> unit
(** Atomically replace [path] with the payload (a trailing newline is
    added if missing) plus its CRC trailer. The containing directory is
    fsynced after the rename so the replacement itself survives a power
    loss. Raises on I/O failure — including a failed fsync, which
    callers must surface rather than treat as a taken snapshot. *)

val read : string -> (string, error) result
(** Read and checksum-verify; returns the payload (with its trailing
    newline). Never raises. *)
