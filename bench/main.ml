(* Experiment harness entry point.

   [dune exec bench/main.exe] regenerates every table and figure of the
   paper's evaluation at a scaled-down "quick" profile; [--full] uses
   Table 3-scale datasets and larger budgets; [--only fig10,table7]
   restricts to specific experiments; [--list] shows the experiment
   index. *)

module Timer = Wgrap_util.Timer

let experiments : (string * string * (Context.t -> unit)) list =
  [
    ("table3", "dataset statistics", Misc_bench.table3);
    ("table6", "toy example of the four scoring functions", Misc_bench.table6);
    ("fig7", "analytic approximation ratio of SDGA", Misc_bench.fig7);
    ("fig9", "JRA scalability: BFS vs ILP vs BBA", Jra_bench.fig9);
    ("cplex_note", "generic CP solver vs BBA", Jra_bench.cplex_note);
    ("table4", "response time of approximate CRA methods", Cra_bench.table4);
    ("fig10", "optimality ratio (DB08, DM08)", Cra_bench.fig10);
    ("fig11", "superiority ratio of SDGA-SRA (DB08, DM08)", Cra_bench.fig11);
    ("fig12", "refinement over time: SRA vs local search", Cra_bench.fig12);
    ("fig14", "additional JRA scalability", Jra_bench.fig14);
    ("fig15", "top-k effect on BBA", Jra_bench.fig15);
    ("fig16", "effect of the convergence threshold omega", Cra_bench.fig16);
    ("fig17", "Theory 2008: optimality + superiority", Cra_bench.fig17);
    ("fig18", "2009 datasets: optimality + superiority", Cra_bench.fig18);
    ("table7", "lowest coverage score, all datasets", Cra_bench.table7);
    ("fig19_20", "case studies: per-topic coverage", Misc_bench.fig19_20);
    ("fig21", "alternative scoring functions + h-index", Misc_bench.fig21);
    ("ablation_bba_bound", "BBA bounding ablation", Ablation_bench.ablation_bba_bound);
    ("ablation_greedy_heap", "greedy heap ablation", Ablation_bench.ablation_greedy_heap);
    ("ablation_sra_prob", "SRA probability-model ablation", Ablation_bench.ablation_sra_prob);
    ("extension_bids", "bid-aware assignment extension", Ablation_bench.extension_bids);
    ("fig1_drawbacks", "drawbacks of earlier RAP formulations", Ablation_bench.fig1_drawbacks);
    ("ablation_lap_solvers", "LAP backend comparison", Ablation_bench.ablation_lap_solvers);
  ]

let list_experiments () =
  List.iter (fun (id, desc, _) -> Printf.printf "%-22s %s\n" id desc) experiments

let run ~full ~only ~seed =
  let profile = if full then Context.full else Context.quick in
  Printf.printf
    "WGRAP experiment harness - profile %s (scale %.2f), seed %d\n%!"
    profile.Context.label profile.Context.scale seed;
  let selected =
    match only with
    | [] -> experiments
    | ids ->
        List.iter
          (fun id ->
            if not (List.exists (fun (i, _, _) -> i = id) experiments) then (
              Printf.eprintf "unknown experiment %S (try --list)\n" id;
              exit 2))
          ids;
        List.filter (fun (id, _, _) -> List.mem id ids) experiments
  in
  let ctx, gen_time =
    Timer.time (fun () -> Context.create ~profile ~seed)
  in
  Printf.printf "Synthetic corpus: %d authors, %d papers (%s)\n%!"
    (Array.length ctx.Context.corpus.Dataset.Corpus.authors)
    (Array.length ctx.Context.corpus.Dataset.Corpus.papers)
    (Wgrap_util.Report.seconds_cell gen_time);
  List.iter
    (fun (id, _, f) ->
      let (), dt = Timer.time (fun () -> f ctx) in
      Format.fprintf ctx.Context.fmt "[%s done in %s]@.%!" id
        (Wgrap_util.Report.seconds_cell dt))
    selected;
  Format.pp_print_flush ctx.Context.fmt ()

open Cmdliner

let full_flag =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at Table 3 scale with large budgets.")

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")

let only_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "only" ] ~docv:"IDS" ~doc:"Comma-separated experiment ids to run.")

let seed_arg =
  Arg.(value & opt int 2015 & info [ "seed" ] ~docv:"SEED" ~doc:"Corpus seed.")

let cmd =
  let doc = "Regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "wgrap-bench" ~doc)
    Term.(
      const (fun list_only full only seed ->
          if list_only then list_experiments () else run ~full ~only ~seed)
      $ list_flag $ full_flag $ only_arg $ seed_arg)

let () = exit (Cmd.eval cmd)
