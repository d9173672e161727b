module Rng = Wgrap_util.Rng
open Wgrap
open Wgrap_baselines

(* {1 SGRAP (Section 2.3)} *)

let test_sgrap_encode_decode () =
  let v = Sgrap.encode ~n_topics:5 [ 0; 3 ] in
  Alcotest.(check (array (float 0.))) "indicator" [| 1.; 0.; 0.; 1.; 0. |] v;
  Alcotest.(check (list int)) "roundtrip" [ 0; 3 ] (Sgrap.decode v);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sgrap.encode: topic out of range") (fun () ->
      ignore (Sgrap.encode ~n_topics:2 [ 5 ]))

let test_sgrap_set_coverage () =
  Alcotest.(check (float 1e-12)) "2 of 3 covered" (2. /. 3.)
    (Sgrap.set_coverage ~group:[ [ 0; 1 ]; [ 1; 4 ] ] ~paper:[ 0; 1; 2 ]);
  Alcotest.(check (float 1e-12)) "empty paper" 0.
    (Sgrap.set_coverage ~group:[ [ 0 ] ] ~paper:[]);
  Alcotest.(check (float 1e-12)) "full" 1.
    (Sgrap.set_coverage ~group:[ [ 0; 1; 2 ] ] ~paper:[ 1; 2 ])

(* The Section 2.3 equivalence: set coverage = weighted coverage of the
   0/1 encodings. *)
let sgrap_equivalence =
  QCheck.Test.make ~name:"set coverage = weighted coverage of 0/1 vectors"
    ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 2 8))
    (fun (seed, n_topics) ->
      let rng = Rng.create seed in
      let random_set () =
        List.filter (fun _ -> Rng.bool rng) (List.init n_topics Fun.id)
      in
      let paper = random_set () in
      let group = List.init (1 + Rng.int rng 3) (fun _ -> random_set ()) in
      let native = Sgrap.set_coverage ~group ~paper in
      let encoded =
        Scoring.group_score Scoring.Weighted_coverage
          (List.map (Sgrap.encode ~n_topics) group)
          (Sgrap.encode ~n_topics paper)
      in
      Float.abs (native -. encoded) < 1e-12)

let test_sgrap_instance_solvable () =
  let papers = [| [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] |] in
  let reviewers = [| [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1; 2 ] |] in
  match
    Sgrap.instance ~n_topics:3 ~papers ~reviewers ~delta_p:2 ~delta_r:2 ()
  with
  | Error e -> Alcotest.fail e
  | Ok inst ->
      let a = Sdga.solve inst in
      Alcotest.(check bool) "feasible" true (Assignment.is_feasible inst a);
      (* BBA solves SGRAP exactly too (it is a WGRAP special case). *)
      let sol = Jra_bba.solve (Jra.of_instance inst ~paper:0) in
      Alcotest.(check (float 1e-12)) "paper 0 fully coverable" 1. sol.Jra.score

let test_binarize_shapes () =
  let rng = Rng.create 11 in
  let vec () = Rng.dirichlet_sym rng ~alpha:0.4 ~dim:6 in
  let inst =
    Instance.create_exn ~coi:[ (1, 2) ]
      ~papers:(Array.init 8 (fun _ -> vec ()))
      ~reviewers:(Array.init 5 (fun _ -> vec ()))
      ~delta_p:2 ~delta_r:4 ()
  in
  let bin = Sgrap.binarize inst in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "binary paper" true
        (Array.for_all (fun x -> Float.equal x 0. || Float.equal x 1.) v))
    bin.Instance.papers;
  Array.iter
    (fun v ->
      Alcotest.(check bool) "binary reviewer" true
        (Array.for_all (fun x -> Float.equal x 0. || Float.equal x 1.) v))
    bin.Instance.reviewers;
  Array.iter
    (fun v ->
      Alcotest.(check bool) "paper keeps some topic" true
        (Array.exists (fun x -> Float.equal x 1.) v))
    bin.Instance.papers;
  Alcotest.(check bool) "coi survives" true
    (Instance.forbidden bin ~paper:1 ~reviewer:2);
  let a = Sdga.solve bin in
  Alcotest.(check bool) "solvable after binarization" true
    (Assignment.is_feasible bin a)

(* {1 RRAP (Definition 4)} *)

let rrap_instance rng =
  let vec () = Rng.dirichlet_sym rng ~alpha:0.3 ~dim:5 in
  Instance.create_exn
    ~papers:(Array.init 20 (fun _ -> vec ()))
    ~reviewers:(Array.init 8 (fun _ -> vec ()))
    ~delta_p:2
    ~delta_r:(Instance.min_workload ~papers:20 ~reviewers:8 ~delta_p:2)
    ()

let test_rrap_workload_exact () =
  (* Every reviewer retrieves exactly delta_r papers (Definition 4 uses
     equality on the reviewer side). *)
  let rng = Rng.create 21 in
  let inst = rrap_instance rng in
  let a = Rrap.solve inst in
  let w = Assignment.workloads a ~n_reviewers:8 in
  Array.iter
    (fun load -> Alcotest.(check int) "= delta_r" inst.Instance.delta_r load)
    w

let test_rrap_is_imbalanced () =
  (* The Figure 1(a) drawback: with skewed topics some papers end up
     under-reviewed even though total capacity matches demand. *)
  let rng = Rng.create 22 in
  let imbalance_seen = ref false in
  for _ = 1 to 10 do
    let inst = rrap_instance rng in
    let stats = Rrap.coverage_stats inst (Rrap.solve inst) in
    if stats.Rrap.under_reviewed > 0 then imbalance_seen := true
  done;
  Alcotest.(check bool) "under-review occurs across instances" true !imbalance_seen

let test_rrap_respects_coi () =
  let rng = Rng.create 23 in
  let vec () = Rng.dirichlet_sym rng ~alpha:0.3 ~dim:5 in
  let inst =
    Instance.create_exn
      ~coi:(List.init 10 (fun p -> (p, 0)))
      ~papers:(Array.init 10 (fun _ -> vec ()))
      ~reviewers:(Array.init 4 (fun _ -> vec ()))
      ~delta_p:2 ~delta_r:5 ()
  in
  let a = Rrap.solve inst in
  (* Reviewer 0 is conflicted with every paper: it retrieves nothing. *)
  Alcotest.(check int) "conflicted reviewer idle" 0
    (Assignment.workloads a ~n_reviewers:4).(0)

let test_rrap_stats_fields () =
  let inst =
    Instance.create_exn
      ~papers:[| [| 1.; 0. |]; [| 1.; 0. |]; [| 0.; 1. |] |]
      ~reviewers:[| [| 1.; 0. |]; [| 1.; 0. |] |]
      ~delta_p:1 ~delta_r:2 ()
  in
  (* Both reviewers love papers 0 and 1; paper 2 gets nobody. *)
  let a = Rrap.solve inst in
  let s = Rrap.coverage_stats inst a in
  Alcotest.(check int) "paper 2 unreviewed" 1 s.Rrap.unreviewed;
  Alcotest.(check int) "papers 0-1 over-reviewed" 2 s.Rrap.over_reviewed;
  Alcotest.(check int) "max group" 2 s.Rrap.max_group

(* {1 Summary} *)

let test_summary_consistency () =
  let rng = Rng.create 31 in
  let inst = rrap_instance rng in
  let a = Sdga.solve inst in
  let s = Summary.compute inst a in
  Alcotest.(check int) "papers" 20 s.Summary.n_papers;
  Alcotest.(check int) "reviewers" 8 s.Summary.n_reviewers;
  Alcotest.(check (float 1e-9)) "total = coverage"
    (Assignment.coverage inst a) s.Summary.coverage_total;
  Alcotest.(check (float 1e-9)) "min = lowest"
    (Metrics.lowest_coverage inst a) s.Summary.coverage_min;
  Alcotest.(check int) "no coi violations" 0 s.Summary.coi_violations;
  Alcotest.(check bool) "workload max within delta_r" true
    (s.Summary.workload_max <= inst.Instance.delta_r);
  Alcotest.(check bool) "p10 between min and max" true
    (s.Summary.coverage_min <= s.Summary.coverage_p10
    && s.Summary.coverage_p10 <= s.Summary.coverage_max)

let test_summary_worst_papers_sorted () =
  let rng = Rng.create 32 in
  let inst = rrap_instance rng in
  let a = Sdga.solve inst in
  let worst = Summary.worst_papers inst a ~k:5 in
  Alcotest.(check int) "k entries" 5 (List.length worst);
  let rec ascending = function
    | (_, x) :: ((_, y) :: _ as rest) -> x <= y +. 1e-12 && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending coverage" true (ascending worst);
  match worst with
  | (p, s) :: _ ->
      Alcotest.(check (float 1e-9)) "worst matches lowest"
        (Metrics.lowest_coverage inst a) s;
      Alcotest.(check (float 1e-9)) "score matches paper"
        (Assignment.paper_score inst a p) s
  | [] -> Alcotest.fail "no worst papers"

let test_summary_histogram () =
  let rng = Rng.create 33 in
  let inst = rrap_instance rng in
  let a = Sdga.solve inst in
  let hist = Summary.coverage_histogram ~buckets:5 inst a in
  Alcotest.(check int) "bucket count" 5 (Array.length hist);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 hist in
  Alcotest.(check int) "all papers bucketed" 20 total;
  Array.iter
    (fun (lo, hi, _) ->
      Alcotest.(check bool) "bucket bounds" true (lo < hi && lo >= 0. && hi <= 1.00001))
    hist

let test_summary_pp () =
  let rng = Rng.create 34 in
  let inst = rrap_instance rng in
  let s = Summary.compute inst (Sdga.solve inst) in
  let out = Format.asprintf "%a" Summary.pp s in
  Alcotest.(check bool) "mentions papers" true
    (String.length out > 40 && String.index_opt out ':' <> None)

let () =
  Alcotest.run "baselines"
    [
      ( "sgrap",
        [
          Alcotest.test_case "encode/decode" `Quick test_sgrap_encode_decode;
          Alcotest.test_case "set coverage" `Quick test_sgrap_set_coverage;
          Alcotest.test_case "instance solvable" `Quick test_sgrap_instance_solvable;
          Alcotest.test_case "binarize" `Quick test_binarize_shapes;
          QCheck_alcotest.to_alcotest sgrap_equivalence;
        ] );
      ( "rrap",
        [
          Alcotest.test_case "workload exact" `Quick test_rrap_workload_exact;
          Alcotest.test_case "imbalance occurs" `Quick test_rrap_is_imbalanced;
          Alcotest.test_case "respects coi" `Quick test_rrap_respects_coi;
          Alcotest.test_case "stats fields" `Quick test_rrap_stats_fields;
        ] );
      ( "summary",
        [
          Alcotest.test_case "consistency" `Quick test_summary_consistency;
          Alcotest.test_case "worst papers" `Quick test_summary_worst_papers_sorted;
          Alcotest.test_case "histogram" `Quick test_summary_histogram;
          Alcotest.test_case "pp" `Quick test_summary_pp;
        ] );
    ]
