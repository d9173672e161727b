(** Canonical byte encodings for snapshots and journal records.

    Everything is line-oriented text with explicit CRC-32 integrity:
    human-inspectable with [cat], yet bit-exact — floats are written as
    [%h] hex literals and RNG words as raw hex, so a decoded state
    replays the uninterrupted run's arithmetic identically. Exposed
    separately from the file layer so tests can corrupt encodings
    in memory and CI can document the format. *)

val magic : string
val version : int

type fingerprint = (string * string) list
(** The run a snapshot belongs to, as named fields in a fixed order
    (see [Store.fingerprint]). Names and values hold no space. *)

val encode_state : fingerprint:fingerprint -> Wgrap.Checkpoint.state -> string
(** The full snapshot file image: versioned header, the run
    fingerprint, state fields, both assignments, and a trailing
    [crc <hex>] line covering every preceding byte. *)

val decode_state :
  string -> (fingerprint * Wgrap.Checkpoint.state, string) result
(** Inverse of {!encode_state}. Rejects (with a human-readable reason)
    truncation, checksum mismatch, version mismatch, malformed fields,
    out-of-range reviewer ids and all-zero RNG states. *)

val encode_event : Wgrap.Checkpoint.event -> string
(** The journal record payload, without checksum. *)

val journal_line : Wgrap.Checkpoint.event -> string
(** One self-checksummed journal record: [crc32-hex TAB payload],
    without the trailing newline. *)

val decode_event_payload :
  string -> (Wgrap.Checkpoint.event, string) result
(** Inverse of {!encode_event} — the payload half of
    {!decode_journal_line}, after the checksum has been verified
    (see {!Journal.Raw}). *)

val decode_journal_line : string -> (Wgrap.Checkpoint.event, string) result
(** Inverse of {!journal_line}; any checksum or parse failure is an
    [Error], which replay treats as a torn tail. *)
