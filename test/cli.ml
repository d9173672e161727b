(* Running the built [wgrap] executable from a test: the suites run in
   [_build/default/test], next to [../bin/wgrap_cli.exe]. *)

let exe = "../bin/wgrap_cli.exe"

(* Exit code and combined stdout/stderr of [wgrap args], stdin closed. *)
let run args =
  let cmd =
    String.concat " " (List.map Filename.quote (exe :: args)) ^ " </dev/null 2>&1"
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED n -> (n, out)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> (128 + n, out)
