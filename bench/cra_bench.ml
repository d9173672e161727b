(* CRA experiments: Table 4 (response times), Figures 10/17/18
   (optimality ratio), Figure 11/17/18 (superiority ratio), Figure 12
   (SRA vs local search over time), Figure 16 (the omega knob), and
   Table 7 (lowest coverage score). *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Report = Wgrap_util.Report
open Wgrap
open Wgrap_baselines

(* Memoization across figures: many tables reuse the same
   (dataset, delta_p, solver) run and the same ideal assignment. *)
let instance_cache : (string * int, Instance.t) Hashtbl.t = Hashtbl.create 32
let run_cache : (string * int * string, Assignment.t * float) Hashtbl.t =
  Hashtbl.create 64
let ideal_cache : (string * int, Assignment.t) Hashtbl.t = Hashtbl.create 32

let instance ctx name ~dp =
  let key = (name, dp) in
  match Hashtbl.find_opt instance_cache key with
  | Some i -> i
  | None ->
      let i = Context.instance ctx name ~delta_p:dp in
      Hashtbl.replace instance_cache key i;
      i

let run ctx name ~dp label =
  let key = (name, dp, label) in
  match Hashtbl.find_opt run_cache key with
  | Some r -> r
  | None ->
      let inst = instance ctx name ~dp in
      let solve = List.assoc label (Context.cra_solvers ctx) in
      let a, dt = Timer.time (fun () -> solve inst) in
      (match Assignment.validate inst a with
      | Ok () -> ()
      | Error e ->
          Context.note ctx "  WARNING: %s on %s dp=%d infeasible: %s@." label
            name dp e);
      Hashtbl.replace run_cache key (a, dt);
      (a, dt)

let ideal ctx name ~dp =
  let key = (name, dp) in
  match Hashtbl.find_opt ideal_cache key with
  | Some i -> i
  | None ->
      let i = Metrics.ideal (instance ctx name ~dp) in
      Hashtbl.replace ideal_cache key i;
      i

let ratio ctx name ~dp label =
  let inst = instance ctx name ~dp in
  let a, _ = run ctx name ~dp label in
  Metrics.optimality_ratio_against inst ~ideal:(ideal ctx name ~dp) a

let methods = [ "SM"; "ILP"; "BRGG"; "Greedy"; "SDGA"; "SDGA-SRA" ]

(* Table 4: response time of the approximate methods. *)
let table4 ctx =
  Context.section ctx "Table 4: response time (s) of approximate methods";
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun dp ->
            Printf.sprintf "%s (delta=%d)" name dp
            :: List.map
                 (fun label -> Report.seconds_cell (snd (run ctx name ~dp label)))
                 methods)
          [ 3; 5 ])
      [ "DB08"; "DM08" ]
  in
  Report.table ~header:("dataset" :: methods) ~rows ctx.Context.fmt

(* Optimality-ratio tables: Figure 10 (DB08, DM08), Figure 17(a)
   (TH08), Figure 18 (2009 datasets). *)
let optimality_table ctx ~title names =
  Context.section ctx title;
  let dps = [ 3; 4; 5 ] in
  List.iter
    (fun name ->
      let rows =
        List.map
          (fun label ->
            label
            :: List.map
                 (fun dp -> Report.percent_cell (ratio ctx name ~dp label))
                 dps)
          methods
      in
      Context.note ctx "%s:@." name;
      Report.table
        ~header:("method" :: List.map (fun d -> Printf.sprintf "dp=%d" d) dps)
        ~rows ctx.Context.fmt;
      Context.note ctx "@.")
    names

let fig10 ctx =
  optimality_table ctx
    ~title:"Figure 10: optimality ratio vs group size (2008, DB and DM)"
    [ "DB08"; "DM08" ]

(* Superiority tables: Figure 11 (DB08, DM08), Figures 17(b)/18. *)
let superiority_table ctx ~title names =
  Context.section ctx title;
  let dps = [ 3; 4; 5 ] in
  let competitors = [ "SM"; "ILP"; "BRGG"; "Greedy" ] in
  List.iter
    (fun name ->
      let rows =
        List.map
          (fun label ->
            label
            :: List.map
                 (fun dp ->
                   let inst = instance ctx name ~dp in
                   let ours, _ = run ctx name ~dp "SDGA-SRA" in
                   let theirs, _ = run ctx name ~dp label in
                   let s = Metrics.superiority inst ours theirs in
                   Printf.sprintf "%s (tie %s)"
                     (Report.percent_cell (s.Metrics.better +. s.Metrics.tie))
                     (Report.percent_cell s.Metrics.tie))
                 dps)
          competitors
      in
      Context.note ctx "%s: ratio of papers where SDGA-SRA >= competitor@." name;
      Report.table
        ~header:("vs" :: List.map (fun d -> Printf.sprintf "dp=%d" d) dps)
        ~rows ctx.Context.fmt;
      Context.note ctx "@.")
    names

let fig11 ctx =
  superiority_table ctx
    ~title:"Figure 11: superiority ratio of SDGA-SRA (2008, DB and DM)"
    [ "DB08"; "DM08" ]

let fig17 ctx =
  optimality_table ctx ~title:"Figure 17(a): optimality ratio, Theory 2008"
    [ "TH08" ];
  superiority_table ctx ~title:"Figure 17(b): superiority ratio, Theory 2008"
    [ "TH08" ]

let fig18 ctx =
  optimality_table ctx ~title:"Figure 18(a,c,e): optimality ratio, 2009 datasets"
    [ "TH09"; "DB09"; "DM09" ];
  superiority_table ctx
    ~title:"Figure 18(b,d,f): superiority ratio, 2009 datasets"
    [ "TH09"; "DB09"; "DM09" ]

(* Figure 12: refinement quality over time, SRA vs plain local search. *)
let fig12 ctx =
  Context.section ctx
    "Figure 12: optimality ratio over refinement time (SDGA-SRA vs SDGA-LS, dp=3)";
  let window = ctx.Context.profile.Context.sra_seconds in
  List.iter
    (fun name ->
      let inst = instance ctx name ~dp:3 in
      let start, _ = run ctx name ~dp:3 "SDGA" in
      let ideal_a = ideal ctx name ~dp:3 in
      let base = Assignment.coverage inst ideal_a in
      let start_ratio = Assignment.coverage inst start /. base in
      let collect refine =
        let samples = ref [ (0., start_ratio) ] in
        let _ =
          refine (fun ~elapsed ~best ->
              samples := (elapsed, best /. base) :: !samples)
        in
        List.rev !samples
      in
      let sra_trace =
        collect (fun record ->
            let rng = Context.rng_for ctx 1212 in
            Sra.refine
              ~params:{ Sra.default_params with omega = max_int; max_rounds = max_int }
              ~on_round:(fun ~round:_ ~elapsed ~best -> record ~elapsed ~best)
              ~ctx:(Ctx.make ~deadline:(Timer.deadline window) ~rng ())
              inst start)
      in
      let ls_trace =
        collect (fun record ->
            let rng = Context.rng_for ctx 2121 in
            Local_search.refine ~deadline:(Timer.deadline window)
              ~on_round:(fun ~round:_ ~elapsed ~best -> record ~elapsed ~best)
              ~rng inst start)
      in
      let sample trace t =
        List.fold_left (fun acc (e, v) -> if e <= t then v else acc)
          start_ratio trace
      in
      let checkpoints =
        List.init 6 (fun i -> float_of_int i *. window /. 5.)
      in
      let rows =
        List.map
          (fun t ->
            [
              Printf.sprintf "%.0fs" t;
              Report.percent_cell (sample sra_trace t);
              Report.percent_cell (sample ls_trace t);
            ])
          checkpoints
      in
      Context.note ctx "%s:@." name;
      Report.table ~header:[ "time"; "SDGA-SRA"; "SDGA-LS" ] ~rows ctx.Context.fmt;
      Context.note ctx "@.")
    [ "DB08"; "DM08" ]

(* Figure 16: the convergence threshold omega — quality/time tradeoff. *)
let fig16 ctx =
  Context.section ctx "Figure 16: effect of the convergence threshold omega (dp=3)";
  List.iter
    (fun name ->
      let inst = instance ctx name ~dp:3 in
      let start, _ = run ctx name ~dp:3 "SDGA" in
      let ideal_a = ideal ctx name ~dp:3 in
      let rows =
        List.map
          (fun omega ->
            let rng = Context.rng_for ctx (1600 + omega) in
            let a, dt =
              Timer.time (fun () ->
                  Sra.refine
                    ~params:{ Sra.default_params with omega }
                    ~ctx:(Ctx.make ~rng ()) inst start)
            in
            [
              string_of_int omega;
              Report.percent_cell
                (Metrics.optimality_ratio_against inst ~ideal:ideal_a a);
              Report.seconds_cell dt;
            ])
          [ 2; 5; 10; 20; 40 ]
      in
      Context.note ctx "%s:@." name;
      Report.table ~header:[ "omega"; "optimality"; "time" ] ~rows ctx.Context.fmt;
      Context.note ctx "@.")
    [ "DB08"; "DM08" ]

(* Table 7: lowest coverage score across all six datasets. *)
let table7 ctx =
  Context.section ctx "Table 7: lowest coverage score in A";
  let competitors = [ "SM"; "ILP"; "BRGG"; "Greedy"; "SDGA-SRA" ] in
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun dp ->
            Printf.sprintf "%s dp=%d" name dp
            :: List.map
                 (fun label ->
                   let inst = instance ctx name ~dp in
                   let a, _ = run ctx name ~dp label in
                   Report.float_cell (Metrics.lowest_coverage inst a))
                 competitors)
          [ 3; 4; 5 ])
      [ "DB08"; "DM08"; "TH08"; "DB09"; "DM09"; "TH09" ]
  in
  Report.table ~header:("dataset" :: competitors) ~rows ctx.Context.fmt
