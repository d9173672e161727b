(* Atomic, CRC-trailered text blobs: the generic half of the snapshot
   discipline, for durable state that is not a solver checkpoint (the
   resident service state of Wgrap_serve). {!replace} is the one
   temp-file, fsync, rename writer that {!Snapshot} shares. *)

type error = Missing | Corrupt of string

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* A rename is only durable once the directory entry itself is on disk:
   fsync the containing directory after renaming, or a power loss can
   silently revert the path to the previous image. *)
let fsync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try Unix.fsync fd
      with Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.EOPNOTSUPP), _, _) ->
        (* some filesystems cannot fsync a directory; the rename is
           still atomic there, the crash window just stays at its
           pre-fsync width *)
        ())

let with_trailer payload =
  let payload =
    if payload = "" || payload.[String.length payload - 1] = '\n' then payload
    else payload ^ "\n"
  in
  payload ^ "crc " ^ Crc32.hex payload ^ "\n"

(* Atomicity discipline: the full image goes to a temp file in the same
   directory, is fsynced, and only then renamed over the live path —
   POSIX rename is atomic, so readers see either the old image or the
   new one, never a torn hybrid. A crash mid-write leaves at worst a
   stale [.tmp] that the next write overwrites. *)
let replace ~op ~path image =
  let tmp = path ^ ".tmp" in
  Persist_error.wrap ~path ~op @@ fun () ->
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        write_all fd image 0 (String.length image);
        (* The fsync result is the write's verdict: if it raises, the
           caller must treat the image as not taken (serve mode turns
           this into a degraded health report, never a silent success). *)
        Unix.fsync fd);
    Sys.rename tmp path;
    fsync_dir path
  with
  | () -> ()
  | exception e ->
      (* Fail-stop: an image that could not be completed (short write,
         full disk) must not linger as a half-written temp file; the
         live path was never touched. *)
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let write ~path payload =
  replace ~op:"writing blob" ~path (with_trailer payload)

let read path =
  if not (Sys.file_exists path) then Error Missing
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error m -> Error (Corrupt m)
    | data -> (
        let len = String.length data in
        if len = 0 then Error (Corrupt "empty blob")
        else if data.[len - 1] <> '\n' then
          Error (Corrupt "torn blob: missing final newline")
        else
          (* The crc line is the last line of the file; everything before
             it (including its terminating newline) is the payload. *)
          let before_last =
            match String.rindex_from_opt data (len - 2) '\n' with
            | Some i -> i + 1
            | None -> 0
          in
          let trailer = String.sub data before_last (len - before_last - 1) in
          let payload = String.sub data 0 before_last in
          match
            if String.length trailer >= 4 && String.sub trailer 0 4 = "crc "
            then Some (String.sub trailer 4 (String.length trailer - 4))
            else None
          with
          | None -> Error (Corrupt "torn blob: missing crc trailer")
          | Some given ->
              if String.lowercase_ascii given <> Crc32.hex payload then
                Error (Corrupt "blob checksum mismatch")
              else Ok payload)
