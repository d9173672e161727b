module Rng = Wgrap_util.Rng
open Wgrap
open Wgrap_baselines

let tiny_instance ?coi rng ~n_p ~n_r ~dp ~dr =
  let vec () = Rng.dirichlet_sym rng ~alpha:0.5 ~dim:4 in
  Instance.create_exn ?coi
    ~papers:(Array.init n_p (fun _ -> vec ()))
    ~reviewers:(Array.init n_r (fun _ -> vec ()))
    ~delta_p:dp ~delta_r:dr ()

(* {1 Exact solver} *)

let test_exact_feasible_and_dominant () =
  let rng = Rng.create 1 in
  for _ = 1 to 10 do
    let inst = tiny_instance rng ~n_p:4 ~n_r:4 ~dp:2 ~dr:2 in
    let opt = Exact.solve inst in
    Alcotest.(check bool) "feasible" true (Assignment.is_feasible inst opt);
    let c_opt = Assignment.coverage inst opt in
    List.iter
      (fun (name, solve) ->
        let c = Assignment.coverage inst (solve inst) in
        Alcotest.(check bool)
          (Printf.sprintf "optimum >= %s (%.4f >= %.4f)" name c_opt c)
          true
          (c_opt >= c -. 1e-9))
      [
        ("SM", Stable_baseline.solve);
        ("Greedy", fun inst -> Greedy.solve inst);
        ("SDGA", fun inst -> Sdga.solve inst);
        ("BRGG", fun inst -> Brgg.solve inst);
      ]
  done

let test_exact_rejects_huge () =
  let rng = Rng.create 2 in
  let inst = tiny_instance rng ~n_p:30 ~n_r:12 ~dp:4 ~dr:10 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Exact.solve: instance too large for exhaustive search")
    (fun () -> ignore (Exact.solve inst))

let test_exact_respects_coi () =
  let rng = Rng.create 3 in
  let inst = tiny_instance ~coi:[ (0, 0); (1, 2) ] rng ~n_p:3 ~n_r:4 ~dp:2 ~dr:2 in
  let opt = Exact.solve inst in
  Alcotest.(check bool) "feasible under coi" true (Assignment.is_feasible inst opt)

(* The headline theorems, against the true optimum. *)
let sdga_guarantee =
  QCheck.Test.make ~name:"SDGA >= 1/2 of the true optimum (Thm. 2)" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 3 + Rng.int rng 3 in
      let n_p = 2 + Rng.int rng 3 in
      let dp = 2 in
      let dr =
        max (Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp)
          (1 + Rng.int rng 3)
      in
      let inst = tiny_instance rng ~n_p ~n_r ~dp ~dr in
      let opt = Assignment.coverage inst (Exact.solve inst) in
      let sdga = Assignment.coverage inst (Sdga.solve inst) in
      sdga >= (0.5 *. opt) -. 1e-9)

let greedy_guarantee =
  QCheck.Test.make ~name:"Greedy >= 1/3 of the true optimum ([22])" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 3 + Rng.int rng 3 in
      let n_p = 2 + Rng.int rng 3 in
      let dp = 2 in
      let dr =
        max (Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp)
          (1 + Rng.int rng 3)
      in
      let inst = tiny_instance rng ~n_p ~n_r ~dp ~dr in
      let opt = Assignment.coverage inst (Exact.solve inst) in
      let greedy = Assignment.coverage inst (Greedy.solve inst) in
      greedy >= (opt /. 3.) -. 1e-9)

let exact_vs_ideal =
  QCheck.Test.make ~name:"c(O) <= c(A_I): the ideal upper-bounds the optimum"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 3 + Rng.int rng 3 in
      let n_p = 2 + Rng.int rng 3 in
      let dp = 1 + Rng.int rng 2 in
      let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
      let inst = tiny_instance rng ~n_p ~n_r ~dp ~dr in
      let opt = Assignment.coverage inst (Exact.solve inst) in
      let ideal = Assignment.coverage inst (Metrics.ideal inst) in
      ideal >= opt -. 1e-9)

let sdga_integral_guarantee =
  QCheck.Test.make
    ~name:"SDGA >= 1-(1-1/dp)^dp of the true optimum when dp | dr (Thm. 1)"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 4 + Rng.int rng 2 in
      let n_p = 2 + Rng.int rng 3 in
      let dp = 2 in
      (* Make dr a multiple of dp while keeping capacity feasible. *)
      let min_dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
      let dr = dp * (((min_dr + dp - 1) / dp) + Rng.int rng 2) in
      let inst = tiny_instance rng ~n_p ~n_r ~dp ~dr in
      let opt = Assignment.coverage inst (Exact.solve inst) in
      let sdga = Assignment.coverage inst (Sdga.solve inst) in
      let bound = Sdga.approximation_ratio ~delta_p:dp ~integral:true in
      sdga >= (bound *. opt) -. 1e-9)

(* {1 Assignment serialization} *)

let test_assignment_tsv_roundtrip () =
  let rng = Rng.create 77 in
  let inst = tiny_instance rng ~n_p:8 ~n_r:5 ~dp:2 ~dr:4 in
  let a = Sdga.solve inst in
  let path = Filename.temp_file "wgrap_assignment" ".tsv" in
  Assignment.save_tsv a path;
  (match Assignment.load_tsv ~n_papers:8 path with
  | Error e -> Alcotest.fail e
  | Ok b ->
      Alcotest.(check bool) "feasible after load" true (Assignment.is_feasible inst b);
      for p = 0 to 7 do
        Alcotest.(check (list int))
          (Printf.sprintf "group of paper %d" p)
          (List.sort compare (Assignment.group a p))
          (List.sort compare (Assignment.group b p))
      done);
  Sys.remove path

let test_assignment_tsv_rejects_garbage () =
  let path = Filename.temp_file "wgrap_assignment" ".tsv" in
  let oc = open_out path in
  output_string oc "0\tnot-an-id\n";
  close_out oc;
  (match Assignment.load_tsv ~n_papers:1 path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  Sys.remove path

(* {1 Bids extension} *)

let test_bids_validation () =
  Alcotest.(check bool) "ok" true
    (Result.is_ok (Bids.create [| [| 0.5; 1. |] |]));
  Alcotest.(check bool) "out of range" true
    (Result.is_error (Bids.create [| [| 1.5 |] |]));
  Alcotest.(check bool) "ragged" true
    (Result.is_error (Bids.create [| [| 0.1 |]; [| 0.1; 0.2 |] |]));
  Alcotest.(check bool) "empty" true (Result.is_error (Bids.create [||]))

let test_bids_random_properties () =
  let rng = Rng.create 4 in
  let inst =
    tiny_instance ~coi:[ (0, 1) ] rng ~n_p:8 ~n_r:5 ~dp:2 ~dr:4
  in
  let bids = Bids.random ~rng inst in
  Alcotest.(check (float 0.)) "coi pairs have zero bid" 0.
    (Bids.bid bids ~paper:0 ~reviewer:1);
  for p = 0 to 7 do
    for r = 0 to 4 do
      let b = Bids.bid bids ~paper:p ~reviewer:r in
      Alcotest.(check bool) "bid in range" true (b >= 0. && b <= 1.)
    done
  done

let blended ?lambda inst bids a =
  Objective.value (Objective.bind (Bids.spec ?lambda bids) inst) a

let test_bids_lambda_one_is_coverage () =
  let rng = Rng.create 5 in
  let inst = tiny_instance rng ~n_p:10 ~n_r:6 ~dp:2 ~dr:4 in
  let bids = Bids.random ~rng inst in
  let a = Sdga.solve inst in
  Alcotest.(check (float 1e-9)) "objective at lambda=1 = coverage"
    (Assignment.coverage inst a)
    (blended ~lambda:1. inst bids a)

let test_bids_sdga_feasible () =
  let rng = Rng.create 6 in
  for _ = 1 to 10 do
    let n_r = 5 + Rng.int rng 5 in
    let n_p = 10 + Rng.int rng 15 in
    let dp = 2 in
    let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
    let inst = tiny_instance rng ~n_p ~n_r ~dp ~dr in
    let bids = Bids.random ~rng inst in
    List.iter
      (fun lambda ->
        let a = Sdga.solve ~ctx:(Ctx.make ~objective:(Bids.spec ~lambda bids) ()) inst in
        Alcotest.(check bool)
          (Printf.sprintf "feasible at lambda=%.1f" lambda)
          true
          (Assignment.is_feasible inst a))
      [ 0.; 0.5; 1. ]
  done

let test_bids_tradeoff_direction () =
  (* Decreasing lambda must not decrease bid satisfaction, averaged over
     several instances (the blend trades coverage for bids). *)
  let rng = Rng.create 7 in
  let sat_low = ref 0. and sat_high = ref 0. in
  for _ = 1 to 8 do
    let inst = tiny_instance rng ~n_p:16 ~n_r:7 ~dp:2 ~dr:6 in
    let bids = Bids.random ~rng inst in
    sat_high := !sat_high +. Bids.bid_satisfaction inst bids (Sdga.solve ~ctx:(Ctx.make ~objective:(Bids.spec ~lambda:0.2 bids) ()) inst);
    sat_low := !sat_low +. Bids.bid_satisfaction inst bids (Sdga.solve ~ctx:(Ctx.make ~objective:(Bids.spec ~lambda:1. bids) ()) inst)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "bid weight raises satisfaction (%.3f >= %.3f)" !sat_high !sat_low)
    true
    (!sat_high >= !sat_low -. 1e-9)

let test_bids_lambda_zero_near_transportation_optimum () =
  (* With lambda = 0 the objective is modular, so the true optimum is a
     transportation problem; stage-based SDGA must reach >= 1/2 of it
     (and in practice much closer). *)
  let rng = Rng.create 8 in
  for _ = 1 to 5 do
    let inst = tiny_instance rng ~n_p:10 ~n_r:6 ~dp:2 ~dr:4 in
    let bids = Bids.random ~rng inst in
    let a = Sdga.solve ~ctx:(Ctx.make ~objective:(Bids.spec ~lambda:0. bids) ()) inst in
    let mine = blended ~lambda:0. inst bids a in
    let matrix =
      Array.init 10 (fun p -> Array.init 6 (fun r -> Bids.bid bids ~paper:p ~reviewer:r))
    in
    let groups =
      Lap.Mcmf.transportation ~row_supply:(Array.make 10 2)
        ~col_capacity:(Array.make 6 4) matrix
    in
    let opt = ref 0. in
    Array.iteri
      (fun p rs -> List.iter (fun r -> opt := !opt +. matrix.(p).(r)) rs)
      groups;
    let opt = !opt /. 2. (* objective divides bids by delta_p *) in
    Alcotest.(check bool)
      (Printf.sprintf "modular sdga %.4f vs optimum %.4f" mine opt)
      true
      (mine >= (0.5 *. opt) -. 1e-9)
  done

let test_bids_refine_never_worse () =
  let rng = Rng.create 9 in
  let inst = tiny_instance rng ~n_p:14 ~n_r:7 ~dp:2 ~dr:4 in
  let bids = Bids.random ~rng inst in
  let objective = Bids.spec bids in
  let start = Sdga.solve ~ctx:(Ctx.make ~objective ()) inst in
  let refined = Sra.refine ~ctx:(Ctx.make ~rng ~objective ()) inst start in
  Alcotest.(check bool) "feasible" true (Assignment.is_feasible inst refined);
  Alcotest.(check bool) "no regression" true
    (blended inst bids refined >= blended inst bids start -. 1e-9)

let () =
  Alcotest.run "extensions"
    [
      ( "exact",
        [
          Alcotest.test_case "feasible and dominant" `Quick test_exact_feasible_and_dominant;
          Alcotest.test_case "rejects huge instances" `Quick test_exact_rejects_huge;
          Alcotest.test_case "respects coi" `Quick test_exact_respects_coi;
          QCheck_alcotest.to_alcotest sdga_guarantee;
          QCheck_alcotest.to_alcotest sdga_integral_guarantee;
          QCheck_alcotest.to_alcotest greedy_guarantee;
          QCheck_alcotest.to_alcotest exact_vs_ideal;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "tsv roundtrip" `Quick test_assignment_tsv_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_assignment_tsv_rejects_garbage;
        ] );
      ( "bids",
        [
          Alcotest.test_case "validation" `Quick test_bids_validation;
          Alcotest.test_case "random bids" `Quick test_bids_random_properties;
          Alcotest.test_case "lambda=1 is coverage" `Quick test_bids_lambda_one_is_coverage;
          Alcotest.test_case "sdga feasible" `Quick test_bids_sdga_feasible;
          Alcotest.test_case "tradeoff direction" `Quick test_bids_tradeoff_direction;
          Alcotest.test_case "lambda=0 vs transportation" `Quick
            test_bids_lambda_zero_near_transportation_optimum;
          Alcotest.test_case "refine never worse" `Quick test_bids_refine_never_worse;
        ] );
    ]
