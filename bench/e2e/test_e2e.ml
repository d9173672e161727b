(* Harness tests for the end-to-end benchmark: the statistics rules, span
   self time, generator determinism, the result formats, the catalog
   against BENCHMARK.json, and every workload's correctness gates on the
   --quick shapes. *)

module H = E2e_bench.Harness
module W = E2e_bench.Workloads
module Json = E2e_bench.Json
module T = H.Trace

let check_float = Alcotest.(check (float 1e-12))
let triple = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12))

(* {1 Statistics} *)

let test_tail_rule () =
  let q = Alcotest.(check (option (float 0.))) in
  q "1000 samples support p99" (Some 0.99) (H.tail_quantile ~want:0.99 1000);
  q "999 samples drop to p95" (Some 0.95) (H.tail_quantile ~want:0.99 999);
  q "100 samples: p90 has exactly ten beyond" (Some 0.9) (H.tail_quantile ~want:0.95 100);
  q "never above the wanted quantile" (Some 0.75) (H.tail_quantile ~want:0.75 10_000);
  q "19 samples support no tail" None (H.tail_quantile ~want:0.9 19);
  let xs = Array.init 19 float_of_int in
  let v, used = H.tail ~want:0.9 xs in
  check_float "falls back to the median" 0.5 used;
  check_float "median value" 9. v

let test_quartiles () =
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25) (H.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "two samples" (0.75, 1.5, 2.25) (H.quartiles [| 2.; 1. |]);
  Alcotest.check triple "unsorted three" (1., 3., 5.) (H.quartiles [| 5.; 1.; 3. |]);
  Alcotest.check triple "four" (1.25, 2.5, 3.75) (H.quartiles [| 1.; 2.; 3.; 4. |]);
  Alcotest.check triple "one sample" (7., 7., 7.) (H.quartiles [| 7. |])

let test_verdict () =
  let base = Array.init 10 (fun i -> 100. +. float_of_int i) in
  let shift k = Array.map (fun x -> x *. k) base in
  let v = Alcotest.testable (Fmt.of_to_string H.verdict_name) ( = ) in
  let lower = H.verdict ~higher_better:false ~bound:0.1 in
  Alcotest.check v "same runs" H.Unchanged (lower ~base ~head:base);
  Alcotest.check v "20% slower" H.Worse (lower ~base ~head:(shift 1.2));
  Alcotest.check v "20% faster" H.Better (lower ~base ~head:(shift 0.8));
  Alcotest.check v "higher-better flips the sign" H.Worse
    (H.verdict ~higher_better:true ~bound:0.1 ~base ~head:(shift 0.8));
  let noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 60. else 140.) in
  Alcotest.check v "spread wider than the bound" H.Unresolved
    (lower ~base:noisy ~head:(Array.map (fun x -> x *. 1.02) noisy))

let test_paired_verdict () =
  let v = Alcotest.testable (Fmt.of_to_string H.verdict_name) ( = ) in
  let base = List.init 10 (fun s -> (s, 4000. +. (40. *. float_of_int s))) in
  let on seed f = List.map (fun (s, x) -> (s, if s = seed then f x else x)) base in
  let paired = H.paired_verdict ~higher_better:true ~base in
  Alcotest.check v "same values" H.Unchanged (paired ~head:base);
  Alcotest.check v "one seed loses 1e-5, far inside the cross-seed spread" H.Worse
    (paired ~head:(on 3 (fun x -> x *. (1. -. 1e-5))));
  Alcotest.check v "a loss within the tolerance" H.Unchanged
    (paired ~head:(on 3 (fun x -> x *. (1. -. 1e-7))));
  Alcotest.check v "one seed gains" H.Unchanged (paired ~head:(on 3 (fun x -> x +. 1.)));
  Alcotest.check v "every seed gains" H.Better
    (paired ~head:(List.map (fun (s, x) -> (s, x +. 1.)) base));
  Alcotest.check v "no seed in common" H.Unresolved
    (paired ~head:(List.map (fun (s, x) -> (s + 100, x)) base))

(* {1 Spans} *)

let span ?(parent = -1) id start_ns end_ns =
  { T.name = "s"; trace_id = 0; span_id = id; parent; start_ns; end_ns; attrs = [] }

let test_self_time () =
  let spans =
    [
      span 0 0 100;
      span ~parent:0 1 10 40;
      span ~parent:0 2 30 60 (* overlaps its sibling: the union counts once *);
      span ~parent:1 3 15 20;
      span ~parent:0 4 90 130 (* runs past its parent: clipped *);
    ]
  in
  let self = List.map (fun ((s : T.span), ns) -> (s.span_id, ns)) (T.self_ns spans) in
  let get id = List.assoc id self in
  Alcotest.(check int) "root minus the union of its children" 40 (get 0);
  Alcotest.(check int) "child minus its own child" 25 (get 1);
  Alcotest.(check int) "leaf" 30 (get 2);
  Alcotest.(check int) "grandchild" 5 (get 3)

let test_recorder_nesting () =
  let tr = T.create () in
  T.set_trace tr 7;
  T.span tr "op" (fun () ->
      T.span tr "a" (fun () -> ());
      T.mark tr "cb" ~start:(Wgrap_util.Timer.now ()) ~stop:(Wgrap_util.Timer.now ()));
  (try T.span tr "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = T.spans tr in
  let by name = List.find (fun (s : T.span) -> String.equal s.name name) spans in
  let op = by "op" in
  Alcotest.(check int) "root" (-1) op.parent;
  Alcotest.(check int) "child of op" op.span_id (by "a").parent;
  Alcotest.(check int) "mark is a child of the open span" op.span_id (by "cb").parent;
  Alcotest.(check int) "trace id" 7 (by "cb").trace_id;
  Alcotest.(check int) "a raising span is still recorded, as a root" (-1) (by "raises").parent;
  Alcotest.(check int) "per-trace totals" 1 (Array.length (T.per_trace spans "a"))

(* {1 Generators} *)

let test_generators () =
  let js = W.serve_stream ~quick:true ~seed:11 in
  Alcotest.(check bool) "serve stream: same seed" true (js = W.serve_stream ~quick:true ~seed:11);
  Alcotest.(check bool) "serve stream: other seed" false (js = W.serve_stream ~quick:true ~seed:12);
  (* The server refuses a bid on a conflicted pair and a repeated
     conflict; the full-size streams must contain neither. *)
  for seed = 1 to 30 do
    let coi = Hashtbl.create 64 in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ _; "coi-add"; p; r ] ->
            Alcotest.(check bool) (Printf.sprintf "seed %d: %s is a new conflict" seed line) false
              (Hashtbl.mem coi (p, r));
            Hashtbl.replace coi (p, r) ()
        | [ _; "bid-update"; p; r; _ ] ->
            Alcotest.(check bool) (Printf.sprintf "seed %d: %s is not conflicted" seed line) false
              (Hashtbl.mem coi (p, r))
        | _ -> ())
      (snd (W.serve_stream ~quick:false ~seed))
  done;
  Alcotest.(check (array int)) "jra order: same seed" (W.jra_order ~seed:3 50) (W.jra_order ~seed:3 50);
  Alcotest.(check bool) "jra order: other seed" false (W.jra_order ~seed:3 50 = W.jra_order ~seed:4 50);
  Alcotest.(check (list int)) "jra order is a permutation" (List.init 50 Fun.id)
    (List.sort Int.compare (Array.to_list (W.jra_order ~seed:3 50)));
  let papers ~seed i = (W.cra_instance ~quick:true ~pruned:true ~seed i).Wgrap.Instance.papers in
  let same a b = Array.for_all2 (Array.for_all2 Float.equal) a b in
  Alcotest.(check bool) "cra instance: same seed" true (same (papers ~seed:5 2) (papers ~seed:5 2));
  Alcotest.(check bool) "cra instance: other op" false (same (papers ~seed:5 2) (papers ~seed:5 3));
  Alcotest.(check bool) "cra instance: other seed" false (same (papers ~seed:5 2) (papers ~seed:6 2))

(* {1 Formats} *)

let keys = function Json.Obj l -> List.map fst l | _ -> []

let test_result_line () =
  let line =
    H.result_line ~correct:true ~attempted:12 ~failed:0
      [ ("latency_ms", 1.2034, "ms"); ("setup_s", 0.8127, "s") ]
  in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      Alcotest.(check (list string)) "exactly the result-line keys"
        [ "correct"; "attempted"; "failed"; "metrics" ] (keys doc);
      Alcotest.(check (option (float 0.))) "attempted is a whole number" (Some 12.)
        (Option.bind (Json.member "attempted" doc) Json.to_num);
      let m = Option.get (Json.member "metrics" doc) in
      Alcotest.(check (list string)) "metric names" [ "latency_ms"; "setup_s" ] (keys m);
      let lat = Option.get (Json.member "latency_ms" m) in
      Alcotest.(check (list string)) "value and unit" [ "value"; "unit" ] (keys lat);
      Alcotest.(check (option (float 0.))) "all digits survive" (Some 1.2034)
        (Option.bind (Json.member "value" lat) Json.to_num)

let test_json () =
  let ok s = match Json.parse s with Ok v -> Json.to_string v | Error e -> "error: " ^ e in
  Alcotest.(check string) "roundtrip, \\u escapes decoded to UTF-8"
    {|{"a": [1, 2.5, "x\"yé"], "b": null, "c": true}|}
    (ok {| { "a" : [1, 2.5, "x\"y\u00e9"], "b":null, "c":true } |});
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true (Result.is_error (Json.parse bad)))
    [ "{"; "[1,]"; "01"; "\"\\q\""; "{} x"; "nan" ]

let test_benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let doc = match Json.parse text with Ok d -> d | Error e -> Alcotest.fail e in
  let names key =
    List.map
      (fun m ->
        ( Option.get (Option.bind (Json.member "name" m) Json.to_str),
          Option.get (Option.bind (Json.member "unit" m) Json.to_str),
          Option.get (Option.bind (Json.member "better" m) Json.to_str),
          Option.bind (Json.member "bound" m) Json.to_num ))
      (Option.get (Option.bind (Json.member key doc) Json.to_list))
  in
  let catalog l =
    List.map
      (fun (m : H.metric) ->
        (m.name, m.unit, (if m.higher_better then "higher" else "lower"), m.bound))
      l
  in
  let row =
    Alcotest.testable
      (fun ppf (n, u, b, bound) ->
        Fmt.pf ppf "%s %s %s %a" n u b Fmt.(option ~none:(any "-") float) bound)
      ( = )
  in
  Alcotest.(check (list row)) "end_to_end matches the catalog" (catalog H.end_to_end)
    (names "end_to_end");
  Alcotest.(check (list row)) "per_layer matches the catalog" (catalog H.per_layer)
    (names "per_layer");
  Alcotest.(check (list string)) "workloads" H.workloads
    (List.map
       (fun w -> Option.get (Option.bind (Json.member "name" w) Json.to_str))
       (Option.get (Option.bind (Json.member "workloads" doc) Json.to_list)));
  let setup = List.find (fun (n, _, _, _) -> String.equal n "setup_s") (names "end_to_end") in
  Alcotest.(check row) "setup_s is present as the contract asks"
    ("setup_s", "s", "lower", Some 0.25) setup

(* {1 The --quick profile: every workload's gates, untraced and traced} *)

let work_dir = "_e2e_test"

let test_quick name () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  List.iter
    (fun trace ->
      let cfg =
        {
          W.seed = 2015;
          seconds = 0.2;
          trace = (if trace then Some (T.create ()) else None);
          quick = true;
          work_dir;
        }
      in
      let r = W.run name cfg in
      let mode = if trace then "traced" else "untraced" in
      List.iter (fun l -> Printf.printf "%s %s: %s\n" name mode l) r.notes;
      Alcotest.(check bool) (mode ^ ": every gate passes") true r.correct;
      Alcotest.(check int) (mode ^ ": no operation failed") 0 r.failed;
      Alcotest.(check bool) (mode ^ ": attempted something") true (r.attempted >= 1);
      (* CRA and JRA run each operation twice untraced, once traced. *)
      if trace && not (String.equal name "serve-wal") then
        Alcotest.(check int) (mode ^ ": one attempt per traced operation") r.attempted
          (Array.length (T.per_trace (T.spans (Option.get cfg.trace)) "op"));
      let catalog = if trace then H.per_layer else H.end_to_end in
      Alcotest.(check (list string)) (mode ^ ": every metric, in catalog order")
        (List.map (fun (m : H.metric) -> m.name) catalog)
        (List.map fst r.metrics);
      Option.iter
        (fun tr ->
          Alcotest.(check bool) "spans were recorded" true (T.spans tr <> []);
          Alcotest.(check bool) "trace.overhead measured" true
            (Float.is_finite (List.assoc "trace.overhead" r.metrics)))
        cfg.trace)
    [ false; true ]

let () =
  Alcotest.run "e2e_bench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "verdicts" `Quick test_verdict;
          Alcotest.test_case "seed-paired verdicts" `Quick test_paired_verdict;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder_nesting;
        ] );
      ("generators", [ Alcotest.test_case "deterministic in the seed" `Quick test_generators ]);
      ( "formats",
        [
          Alcotest.test_case "result line shape" `Quick test_result_line;
          Alcotest.test_case "json parse and print" `Quick test_json;
          Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick test_benchmark_json;
        ] );
      ("quick", List.map (fun w -> Alcotest.test_case w `Quick (test_quick w)) H.workloads);
    ]
