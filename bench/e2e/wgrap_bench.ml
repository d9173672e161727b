(* The end-to-end benchmark: four closed-loop workloads, each measured
   from outside through the layers' public calls.

     dune exec -- bench/e2e/wgrap_bench.exe                 all four, one child process each
     dune exec -- bench/e2e/wgrap_bench.exe --workload serve-wal --seed 7 --seconds 20 --trace 0
     dune exec -- bench/e2e/wgrap_bench.exe --trace 1       per-layer metrics, spans to JSONL

   With --workload the last line of stdout is the result object
   ({correct, attempted, failed, metrics}); a fuller record with the
   host (nproc, OCaml, commit, jobs) and sample counts goes to
   <out-dir>/<workload>.seed<n>.<e2e|trace>.json, which compare.exe
   reads. Exit 0 when every correctness gate passed, 1 when one failed,
   2 on a usage error. See README.md. *)

module H = E2e_bench.Harness
module W = E2e_bench.Workloads
module Json = E2e_bench.Json
module Timer = Wgrap_util.Timer

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let unit_of catalog name =
  match List.find_opt (fun (m : H.metric) -> String.equal m.name name) catalog with
  | Some m -> m.unit
  | None -> "?"

(* Per-span-name totals, heaviest self time first. *)
let print_self_times spans =
  let table = Hashtbl.create 32 in
  List.iter
    (fun ((s : H.Trace.span), self) ->
      let n, incl, slf =
        Option.value (Hashtbl.find_opt table s.name) ~default:(0, 0, 0)
      in
      Hashtbl.replace table s.name (n + 1, incl + (s.end_ns - s.start_ns), slf + self))
    (H.Trace.self_ns spans);
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) table [] in
  let rows =
    List.sort (fun (a, (_, _, x)) (b, (_, _, y)) ->
        match Int.compare y x with 0 -> String.compare a b | c -> c) rows
  in
  Printf.printf "# %-28s %8s %14s %14s\n" "span" "count" "inclusive_s" "self_s";
  List.iter
    (fun (name, (n, incl, slf)) ->
      Printf.printf "# %-28s %8d %14.6f %14.6f\n" name n
        (float_of_int incl /. 1e9) (float_of_int slf /. 1e9))
    rows

let run_one ~name ~seed ~seconds ~trace ~out_dir ~quick =
  mkdir_p out_dir;
  let host = H.host () in
  let tr = if trace then Some (H.Trace.create ()) else None in
  let cfg = { W.seed; seconds; trace = tr; quick; work_dir = out_dir } in
  let res, wall = Timer.time (fun () -> W.run name cfg) in
  let catalog = if trace then H.per_layer else H.end_to_end in
  Printf.printf "# host nproc=%d ocaml=%s commit=%s jobs=1\n" host.nproc host.ocaml
    host.commit;
  Printf.printf "# %s seed=%d seconds=%g trace=%d%s: %d attempted, %d failed, %s, %.1f s\n"
    name seed seconds (Bool.to_int trace)
    (if quick then " quick" else "")
    res.attempted res.failed
    (if res.correct then "all gates passed" else "GATE FAILED")
    wall;
  List.iter
    (fun (metric, v) ->
      Printf.printf "%-16s %-34s %20.9g %-6s%s\n" name metric v (unit_of catalog metric)
        (match List.assoc_opt metric res.samples with
        | Some n -> Printf.sprintf " n=%d" n
        | None -> ""))
    res.metrics;
  List.iter (fun l -> Printf.printf "# %s\n" l) res.notes;
  let stem = Filename.concat out_dir (Printf.sprintf "%s.seed%d" name seed) in
  Option.iter
    (fun tr ->
      let spans = H.Trace.spans tr in
      let path = stem ^ ".spans.jsonl" in
      H.Trace.write_jsonl spans path;
      print_self_times spans;
      Printf.printf "# spans: %s\n" path)
    tr;
  let num x = Json.Num x in
  let record =
    Json.Obj
      [
        ("workload", Json.Str name);
        ("seed", num (float_of_int seed));
        ("seconds", num seconds);
        ("trace", Json.Bool trace);
        ("quick", Json.Bool quick);
        ("host", H.host_json host);
        ("correct", Json.Bool res.correct);
        ("attempted", num (float_of_int res.attempted));
        ("failed", num (float_of_int res.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (metric, v) ->
                 ( metric,
                   Json.Obj
                     ([ ("value", num v); ("unit", Json.Str (unit_of catalog metric)) ]
                     @
                     match List.assoc_opt metric res.samples with
                     | Some n -> [ ("n", num (float_of_int n)) ]
                     | None -> []) ))
               res.metrics) );
        ("notes", Json.Arr (List.map (fun l -> Json.Str l) res.notes));
      ]
  in
  let path = stem ^ (if trace then ".trace.json" else ".e2e.json") in
  let oc = open_out path in
  output_string oc (Json.to_string record);
  output_char oc '\n';
  close_out oc;
  print_endline
    (H.result_line ~correct:res.correct ~attempted:res.attempted ~failed:res.failed
       (List.map (fun (metric, v) -> (metric, v, unit_of catalog metric)) res.metrics));
  if res.correct then 0 else 1

(* Every workload in its own child process, so each peak RSS is its own;
   children run one after another and are waited for. Their output,
   every metric by name and unit, passes straight through. *)
let run_all forward =
  let failed =
    List.filter
      (fun w ->
        let argv = Array.of_list (Sys.executable_name :: "--workload" :: w :: forward) in
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
      H.workloads
  in
  List.iter (fun w -> Printf.printf "FAILED: %s\n" w) failed;
  if failed = [] then 0 else 1

open Cmdliner

let workload =
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME"
         ~doc:("Run one workload in this process: " ^ String.concat ", " H.workloads
               ^ ". Without it, every workload runs in its own child process."))

let seed = Arg.(value & opt int 2015 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")

let seconds =
  Arg.(value & opt (some float) None & info [ "seconds" ] ~docv:"S"
         ~doc:"Closed-loop measuring time per workload (default 20; 0.5 with --quick).")

let trace =
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1"
         ~doc:"1: traced run reporting the per-layer metrics and writing spans.")

let out_dir =
  Arg.(value & opt string (Filename.concat "bench" (Filename.concat "e2e" "_out"))
       & info [ "out-dir" ] ~docv:"DIR"
           ~doc:"Result files, spans and WAL scratch directories.")

let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Tiny shapes (the test profile).")

let main workload seed seconds trace out_dir quick =
  let usage msg =
    prerr_endline ("wgrap_bench: " ^ msg);
    2
  in
  let seconds = Option.value seconds ~default:(if quick then 0.5 else 20.) in
  if trace <> 0 && trace <> 1 then usage "--trace takes 0 or 1"
  else if not (seconds > 0.) then usage "--seconds must be positive"
  else
    match workload with
    | Some name when not (List.mem name H.workloads) ->
        usage ("unknown workload " ^ name)
    | Some name ->
        run_one ~name ~seed ~seconds ~trace:(trace = 1) ~out_dir ~quick
    | None ->
        let forward =
          [ "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%.17g" seconds;
            "--trace"; string_of_int trace; "--out-dir"; out_dir ]
          @ if quick then [ "--quick" ] else []
        in
        flush stdout;
        run_all forward

let cmd =
  Cmd.v
    (Cmd.info "wgrap_bench" ~doc:"End-to-end benchmark of wgrap's batch, journal and service paths")
    Term.(const main $ workload $ seed $ seconds $ trace $ out_dir $ quick)

let () = exit (Cmd.eval' cmd)
