(* Ablations for the design choices DESIGN.md calls out:
   - BBA's cursor bound (Eq. 3) vs unpruned search;
   - the lazy-heap Greedy vs a full rescan;
   - the Hungarian algorithm vs min-cost flow on identical LAP matrices;
   - SRA's Eq. 10 probability model vs uniform removal. *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Report = Wgrap_util.Report
open Wgrap
open Wgrap_baselines

let ablation_bba_bound ctx =
  Context.section ctx "Ablation: BBA bounding (Eq. 3) on JRA instances";
  let pool = Context.jra_pool ctx in
  let papers = Context.jra_papers ctx ~count:5 in
  let rng = Context.rng_for ctx 9001 in
  let r = min 60 (Array.length pool) in
  let idx = Rng.sample_without_replacement rng r (Array.length pool) in
  let sub = Array.map (fun i -> pool.(i)) idx in
  let rows =
    List.map
      (fun dp ->
        let totals use_bound =
          let nodes = ref 0 and time = ref 0. in
          Array.iter
            (fun paper ->
              let problem = Jra.make ~paper ~pool:sub ~group_size:dp () in
              let (_, stats), dt =
                Timer.time (fun () -> Jra_bba.solve_counting ~use_bound problem)
              in
              nodes := !nodes + stats.Jra_bba.nodes;
              time := !time +. dt)
            papers;
          (!nodes, !time)
        in
        let bounded_nodes, bounded_time = totals true in
        let unbounded_nodes, unbounded_time = totals false in
        [
          string_of_int dp;
          string_of_int bounded_nodes;
          string_of_int unbounded_nodes;
          Printf.sprintf "%.1fx"
            (float_of_int unbounded_nodes /. float_of_int (max 1 bounded_nodes));
          Report.seconds_cell bounded_time;
          Report.seconds_cell unbounded_time;
        ])
      [ 2; 3 ]
  in
  Report.table
    ~header:[ "dp"; "nodes (bound)"; "nodes (none)"; "pruning"; "time (bound)"; "time (none)" ]
    ~rows ctx.Context.fmt

let ablation_greedy_heap ctx =
  Context.section ctx "Ablation: lazy-heap Greedy vs full rescan";
  let rows =
    List.map
      (fun name ->
        let inst = Context.instance ctx name ~delta_p:3 in
        let a, t_lazy = Timer.time (fun () -> Greedy.solve inst) in
        let b, t_rescan = Timer.time (fun () -> Greedy.solve_rescan inst) in
        [
          name;
          Report.seconds_cell t_lazy;
          Report.seconds_cell t_rescan;
          Report.float_cell (Assignment.coverage inst a);
          Report.float_cell (Assignment.coverage inst b);
        ])
      [ "DB08"; "DM08" ]
  in
  Report.table
    ~header:[ "dataset"; "lazy"; "rescan"; "c(lazy)"; "c(rescan)" ]
    ~rows ctx.Context.fmt

let ablation_sra_prob ctx =
  Context.section ctx
    "Ablation: SRA removal probability (Eq. 10) vs uniform removal";
  (* Uniform removal = lambda -> infinity (the floor 1/R dominates). *)
  let rows =
    List.map
      (fun name ->
        let inst = Context.instance ctx name ~delta_p:3 in
        let start = Sdga.solve inst in
        let ideal = Metrics.ideal inst in
        let refine lambda salt =
          let rng = Context.rng_for ctx salt in
          let a =
            Sra.refine
              ~params:{ Sra.default_params with lambda }
              ~ctx:(Ctx.make ~rng ()) inst start
          in
          Metrics.optimality_ratio_against inst ~ideal a
        in
        [
          name;
          Report.percent_cell
            (Metrics.optimality_ratio_against inst ~ideal start);
          Report.percent_cell (refine Sra.default_params.Sra.lambda 71);
          Report.percent_cell (refine 1e9 72);
        ])
      [ "DB08"; "DM08" ]
  in
  Report.table
    ~header:[ "dataset"; "SDGA"; "SRA (Eq. 10)"; "SRA (uniform)" ]
    ~rows ctx.Context.fmt

(* Extension (paper's Section 6 future work): bid-aware assignment.
   Sweeps the blending weight lambda and reports the coverage /
   bid-satisfaction tradeoff on DB08. *)
let extension_bids ctx =
  Context.section ctx
    "Extension: bid-aware assignment (lambda * coverage + (1-lambda) * bids)";
  let inst = Context.instance ctx "DB08" ~delta_p:3 in
  let rng = Context.rng_for ctx 777 in
  let bids = Bids.random ~rng inst in
  let ideal = Metrics.ideal inst in
  let rows =
    List.map
      (fun lambda ->
        let objective = Bids.spec ~lambda bids in
        let start = Sdga.solve ~ctx:(Ctx.make ~objective ()) inst in
        let a = Sra.refine ~ctx:(Ctx.make ~rng ~objective ()) inst start in
        [
          Printf.sprintf "%.2f" lambda;
          Report.percent_cell (Metrics.optimality_ratio_against inst ~ideal a);
          Report.float_cell (Bids.bid_satisfaction inst bids a);
          Report.float_cell
            (Objective.value (Objective.bind objective inst) a);
        ])
      [ 1.0; 0.9; 0.7; 0.5; 0.3; 0.0 ]
  in
  Report.table
    ~header:[ "lambda"; "coverage optimality"; "mean bid"; "blended objective" ]
    ~rows ctx.Context.fmt;
  Context.note ctx
    "(lambda = 1 is plain WGRAP; lowering lambda trades topic coverage for@ \
     reviewer-preference satisfaction; the blend stays submodular, so the@ \
     SDGA guarantee holds throughout)@."

(* The introduction's motivating drawbacks, quantified (Figures 1-2):
   (a) retrieval-based assignment leaves papers unreviewed; (b) the
   set-coverage objective (SGRAP) loses the topic weights, hurting the
   weighted-coverage quality of its solutions. *)
let fig1_drawbacks ctx =
  Context.section ctx "Figures 1-2: drawbacks of earlier RAP formulations";
  let inst = Context.instance ctx "DB08" ~delta_p:3 in
  (* (a) RRAP imbalance. *)
  let rrap = Rrap.solve inst in
  let s = Rrap.coverage_stats inst rrap in
  Report.table
    ~header:[ "RRAP (Def. 4) on DB08"; "value" ]
    ~rows:
      [
        [ "papers with no reviewer"; string_of_int s.Rrap.unreviewed ];
        [ "papers under delta_p"; string_of_int s.Rrap.under_reviewed ];
        [ "papers over delta_p"; string_of_int s.Rrap.over_reviewed ];
        [ "largest group"; string_of_int s.Rrap.max_group ];
      ]
    ctx.Context.fmt;
  (* (b) solving the binarized (SGRAP) instance, evaluated under the
     weighted objective, vs solving the weighted instance directly. *)
  let ideal = Metrics.ideal inst in
  let weighted = Sdga.solve inst in
  let bin_inst = Sgrap.binarize inst in
  let from_sets = Sdga.solve bin_inst in
  (* The set solution is feasible for the weighted instance (same
     constraints), so it can be scored under the true objective. *)
  Context.note ctx "@.";
  Report.table
    ~header:[ "SDGA on"; "weighted-coverage optimality" ]
    ~rows:
      [
        [ "weighted vectors (WGRAP)";
          Report.percent_cell (Metrics.optimality_ratio_against inst ~ideal weighted) ];
        [ "binarized vectors (SGRAP view)";
          Report.percent_cell (Metrics.optimality_ratio_against inst ~ideal from_sets) ];
      ]
    ctx.Context.fmt;
  Context.note ctx
    "(the gap is the \"topic equilibrium problem\": set coverage treats all@ \
     paper topics as equally important)@."

(* The paper's two Stage-WGRAP solvers on identical LAP matrices. *)
let ablation_lap_solvers ctx =
  Context.section ctx "Ablation: LAP backends (Hungarian / min-cost flow)";
  let rng = Context.rng_for ctx 555 in
  let rows =
    List.map
      (fun n ->
        let score =
          Array.init n (fun _ -> Array.init n (fun _ -> Rng.float rng 1.))
        in
        let (_, v_h), t_h = Timer.time (fun () -> Lap.Hungarian.maximize score) in
        let flows, t_f =
          Timer.time (fun () ->
              Lap.Mcmf.transportation ~row_supply:(Array.make n 1)
                ~col_capacity:(Array.make n 1) score)
        in
        let v_f = ref 0. in
        Array.iteri
          (fun i cols -> List.iter (fun j -> v_f := !v_f +. score.(i).(j)) cols)
          flows;
        [
          string_of_int n;
          Report.seconds_cell t_h;
          Report.seconds_cell t_f;
          (if Float.abs (v_h -. !v_f) < 1e-6 then "yes" else "NO");
        ])
      [ 50; 100; 200 ]
  in
  Report.table
    ~header:[ "n"; "hungarian"; "mcmf"; "optima agree" ]
    ~rows ctx.Context.fmt
