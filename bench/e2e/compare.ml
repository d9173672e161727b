(* Compare two sets of wgrap_bench result files against the bounds of the
   metric catalog (Harness.end_to_end, which BENCHMARK.json mirrors):

     dune exec -- bench/e2e/compare.exe BASE_DIR HEAD_DIR

   Each directory holds the <workload>.seed<n>.<e2e|trace>.json files of
   one commit (wgrap_bench --out-dir). One row per (metric, workload):
   each side's median and quartiles, the change of the medians as a
   share of the base, and a verdict — better, worse, unchanged or
   unresolved. A metric a seed fixes exactly on a workload is judged
   from the runs paired by seed (Harness.paired_verdict); the others by
   Harness.verdict, with runs paired in seed order. Per-layer metrics
   carry no bound and are listed for information. Exit 1 when any
   end-to-end metric is worse. *)

module H = E2e_bench.Harness

let load_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".e2e.json" || Filename.check_suffix f ".trace.json")
  |> List.map (fun f ->
         match H.read_result (Filename.concat dir f) with
         | Ok r -> r
         | Error e -> failwith e)

(* Values of one metric on one workload, ordered by seed. *)
let series results ~workload ~metric =
  results
  |> List.filter_map (fun (w, seed, metrics) ->
         if String.equal w workload then
           Option.map (fun v -> (seed, v)) (List.assoc_opt metric metrics)
         else None)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let run base_dir head_dir =
  let base = load_dir base_dir and head = load_dir head_dir in
  let regressions = ref 0 in
  Printf.printf "%-16s %-34s %9s  %-34s %-34s %9s  %s\n" "workload" "metric" "bound"
    "base q1 / median / q3" "head q1 / median / q3" "change" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (m : H.metric) ->
          let bs = series base ~workload ~metric:m.name
          and hs = series head ~workload ~metric:m.name in
          if bs <> [] && hs <> [] then begin
            let values l = Array.of_list (List.map snd l) in
            let b = values bs and h = values hs in
            let q1b, mb, q3b = H.quartiles b and q1h, mh, q3h = H.quartiles h in
            let exact = List.mem workload m.exact_on in
            let verdict =
              match m.bound with
              | None -> None
              | Some _ when exact ->
                  Some (H.paired_verdict ~higher_better:m.higher_better ~base:bs ~head:hs)
              | Some bound ->
                  Some (H.verdict ~higher_better:m.higher_better ~bound ~base:b ~head:h)
            in
            if verdict = Some H.Worse then incr regressions;
            let change =
              if Float.equal mb 0. then "-"
              else Printf.sprintf "%+.2f%%" (100. *. (mh -. mb) /. Float.abs mb)
            in
            Printf.printf "%-16s %-34s %9s  %-34s %-34s %9s  %s (n=%d/%d)\n" workload
              m.name
              (match m.bound with
              | Some _ when exact -> Printf.sprintf "%g/seed" H.exact_tolerance
              | Some x -> Printf.sprintf "%g" x
              | None -> "-")
              (Printf.sprintf "%.6g / %.6g / %.6g" q1b mb q3b)
              (Printf.sprintf "%.6g / %.6g / %.6g" q1h mh q3h)
              change
              (Option.fold ~none:"info" ~some:H.verdict_name verdict)
              (Array.length b) (Array.length h)
          end)
        (H.end_to_end @ H.per_layer))
    H.workloads;
  if !regressions > 0 then begin
    Printf.printf "%d metric(s) worse beyond their bound\n" !regressions;
    1
  end
  else 0

open Cmdliner

let dir_arg n docv =
  Arg.(required & pos n (some dir) None & info [] ~docv ~doc:"Directory of result files.")

let cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two sets of wgrap_bench results")
    Term.(const run $ dir_arg 0 "BASE_DIR" $ dir_arg 1 "HEAD_DIR")

let () = exit (Cmd.eval' cmd)
