type error = Missing | Corrupt of string

let write ~fingerprint ~path st =
  Blob.replace ~op:"writing snapshot" ~path (Codec.encode_state ~fingerprint st)

let read path =
  if not (Sys.file_exists path) then Error Missing
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error m -> Error (Corrupt m)
    | data -> (
        match Codec.decode_state data with
        | Ok snap -> Ok snap
        | Error m -> Error (Corrupt m))

let error_message = function
  | Missing -> "no snapshot file"
  | Corrupt m -> m
