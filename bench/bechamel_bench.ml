(* Bechamel micro-benchmarks: one [Test.make] per table/figure family,
   measuring the kernel that experiment exercises. Printed as ns/run
   (OLS estimate against the run counter). *)

module Rng = Wgrap_util.Rng
open Wgrap
open Bechamel
open Toolkit

(* Small deterministic fixtures shared by the kernels. *)
let fixture =
  lazy
    (let rng = Rng.create 99 in
     let dim = 30 in
     let vec () = Rng.dirichlet_sym rng ~alpha:0.3 ~dim in
     let pool = Array.init 120 (fun _ -> vec ()) in
     let paper = vec () in
     let n_p = 60 and n_r = 20 in
     let dr = Wgrap.Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:3 in
     let inst =
       Wgrap.Instance.create_exn
         ~papers:(Array.init n_p (fun _ -> vec ()))
         ~reviewers:(Array.init n_r (fun _ -> vec ()))
         ~delta_p:3 ~delta_r:dr ()
     in
     let sdga = Sdga.solve inst in
     let matrix =
       Array.init 40 (fun _ -> Array.init 40 (fun _ -> Rng.float rng 10.))
     in
     (paper, pool, inst, sdga, matrix))

let tests () =
  let paper, pool, inst, sdga, matrix = Lazy.force fixture in
  let jra_problem = Jra.make ~paper ~pool ~group_size:3 () in
  [
    (* Figure 9 family: the exact JRA solvers. *)
    Test.make ~name:"fig9/bba_r120_dp3"
      (Staged.stage (fun () -> Jra_bba.solve jra_problem));
    Test.make ~name:"fig9/bfs_r25_dp3"
      (Staged.stage
         (let small =
            Jra.make ~paper ~pool:(Array.sub pool 0 25) ~group_size:3 ()
          in
          fun () -> Jra_bfs.solve small));
    (* Figure 15: top-k. *)
    Test.make ~name:"fig15/bba_top100"
      (Staged.stage (fun () -> Jra_bba.top_k jra_problem ~k:100));
    (* Table 4 family: the approximate CRA solvers. *)
    Test.make ~name:"table4/greedy"
      (Staged.stage (fun () -> Greedy.solve inst));
    Test.make ~name:"table4/sdga"
      (Staged.stage (fun () -> Sdga.solve inst));
    Test.make ~name:"table4/stable_matching"
      (Staged.stage (fun () -> Stable_baseline.solve inst));
    Test.make ~name:"table4/arap_flow"
      (Staged.stage (fun () -> Arap_ilp.solve inst));
    (* Figures 12/16: one SRA round's two kernels. *)
    Test.make ~name:"fig12/stage_refill"
      (Staged.stage (fun () ->
           (* A fresh matrix per run: times row computation plus the LAP. *)
           Stage.solve ~gains:(Gain_matrix.create inst) inst
             ~current:(Assignment.empty ~n_papers:60)
             ~capacity:(Array.make 20 9)));
    Test.make ~name:"fig12/coverage_eval"
      (Staged.stage (fun () -> Assignment.coverage inst sdga));
    (* Figures 10/11 family: the metric kernels. *)
    Test.make ~name:"fig10/ideal_assignment"
      (Staged.stage (fun () -> Metrics.ideal inst));
    (* Substrate: the linear-assignment engines behind SDGA. *)
    Test.make ~name:"substrate/hungarian_40x40"
      (Staged.stage (fun () -> Lap.Hungarian.maximize matrix));
    Test.make ~name:"substrate/mcmf_40x40"
      (Staged.stage (fun () ->
           Lap.Mcmf.transportation ~row_supply:(Array.make 40 1)
             ~col_capacity:(Array.make 40 1) matrix));
    (* Tables 8-9 / Section 2.4 family: inference kernels. *)
    Test.make ~name:"pipeline/em_infer"
      (Staged.stage
         (let phi = Array.init 30 (fun _ -> Rng.dirichlet_sym (Rng.create 5) ~alpha:0.2 ~dim:50) in
          let tokens = Array.init 60 (fun i -> i mod 50) in
          fun () -> Topics.Em_inference.infer ~phi tokens));
    (* Table 6: a single scoring evaluation. *)
    Test.make ~name:"table6/weighted_coverage"
      (Staged.stage (fun () -> Scoring.score Scoring.Weighted_coverage pool.(0) paper));
  ]

let run (ctx : Context.t) =
  Context.section ctx "Bechamel micro-benchmarks (ns per run, OLS)";
  let tests = Test.make_grouped ~name:"wgrap" (tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (v :: _) -> v
        | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows =
    List.sort compare !rows
    |> List.map (fun (name, ns) ->
           [ name; Wgrap_util.Report.seconds_cell (ns *. 1e-9) ])
  in
  Wgrap_util.Report.table ~header:[ "kernel"; "time/run" ] ~rows ctx.Context.fmt
