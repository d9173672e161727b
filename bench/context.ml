(* Shared state for the experiment harness: sizing profile, the
   synthetic corpus, and memoized per-dataset topic extraction. *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Report = Wgrap_util.Report
open Wgrap
open Wgrap_baselines

type profile = {
  label : string;
  scale : float;  (* shrink factor on Table 3 sizes *)
  gibbs_iters : int;
  solver_budget : float;  (* per-point wall-clock budget, seconds *)
  bfs_combination_budget : float;  (* BFS points above this C(R, dp) are skipped *)
  ilp_max_reviewers : int;  (* dense-simplex memory cap *)
  sra_seconds : float;  (* refinement window for the trace figures *)
}

let quick =
  {
    label = "quick";
    scale = 0.25;
    gibbs_iters = 50;
    solver_budget = 30.;
    bfs_combination_budget = 2e7;
    ilp_max_reviewers = 40;
    sra_seconds = 20.;
  }

let full =
  {
    label = "full";
    scale = 1.0;
    gibbs_iters = 80;
    solver_budget = 600.;
    bfs_combination_budget = 1e9;
    ilp_max_reviewers = 80;
    sra_seconds = 50.;
  }

type t = {
  profile : profile;
  seed : int;
  corpus : Dataset.Corpus.t;
  truth : Dataset.Synthetic.ground_truth;
  extraction_cache : (string, Dataset.Pipeline.extracted) Hashtbl.t;
  fmt : Format.formatter;
}

let create ~profile ~seed =
  let rng = Rng.create seed in
  let config =
    Dataset.Synthetic.scaled Dataset.Synthetic.default_config profile.scale
  in
  let corpus, truth = Dataset.Synthetic.generate ~config ~rng () in
  {
    profile;
    seed;
    corpus;
    truth;
    extraction_cache = Hashtbl.create 8;
    fmt = Format.std_formatter;
  }

let rng_for t salt = Rng.create (t.seed + (1_000_003 * salt))

let scaled_committee t (spec : Dataset.Datasets.spec) =
  let n =
    max 6
      (int_of_float
         (Float.round
            (float_of_int spec.Dataset.Datasets.n_reviewers *. t.profile.scale)))
  in
  { spec with Dataset.Datasets.n_reviewers = n }

let extraction t name =
  match Hashtbl.find_opt t.extraction_cache name with
  | Some e -> e
  | None ->
      let spec =
        match Dataset.Datasets.find name with
        | Some s -> scaled_committee t s
        | None -> invalid_arg ("unknown dataset " ^ name)
      in
      let submissions = Dataset.Datasets.submissions t.corpus spec in
      let committee = Dataset.Datasets.committee t.corpus spec in
      let rng = rng_for t (Hashtbl.hash name) in
      let e, dt =
        Timer.time (fun () ->
            Dataset.Pipeline.extract ~gibbs_iters:t.profile.gibbs_iters ~rng
              ~corpus:t.corpus ~submissions ~committee ())
      in
      Format.fprintf t.fmt "  [extracted %s: %d papers, %d reviewers, %s]@."
        name
        (Array.length e.Dataset.Pipeline.paper_vectors)
        (Array.length e.Dataset.Pipeline.reviewer_vectors)
        (Report.seconds_cell dt);
      Hashtbl.replace t.extraction_cache name e;
      e

let instance ?scoring ?(with_coi = true) t name ~delta_p =
  let e = extraction t name in
  let n_p = Array.length e.Dataset.Pipeline.paper_vectors in
  let n_r = Array.length e.Dataset.Pipeline.reviewer_vectors in
  let delta_r = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p in
  let coi = if with_coi then Some (Dataset.Pipeline.coi_pairs t.corpus e) else None in
  Dataset.Pipeline.instance ?scoring ?coi e ~delta_p ~delta_r

(* The JRA candidate pool (Section 5.1): authors with >= 3 papers in
   2005-2009. Vectors come from the generator's ground-truth mixtures —
   training ATM on a 1000-author pool would dominate the harness's
   runtime without changing what Figure 9 measures (solver scaling in R
   and delta_p). The trained pipeline is exercised by the CRA
   experiments and the test suite. *)
let jra_pool t =
  let ids = Dataset.Datasets.default_reviewer_pool t.corpus in
  Array.of_list
    (List.map (fun a -> Array.copy t.truth.Dataset.Synthetic.author_mixture.(a)) ids)

let jra_papers t ~count =
  (* Random 2008-2009 submissions, using realized topic mixtures. *)
  let rng = rng_for t 77 in
  let eval_papers =
    Array.to_list t.corpus.Dataset.Corpus.papers
    |> List.filter (fun p -> p.Dataset.Corpus.year >= 2008)
    |> Array.of_list
  in
  Array.init count (fun _ ->
      let p = eval_papers.(Rng.int rng (Array.length eval_papers)) in
      Array.copy t.truth.Dataset.Synthetic.paper_mixture.(p.Dataset.Corpus.paper_id))

(* {1 CRA solver registry} *)

let cra_solvers t =
  [
    ("SM", fun inst -> Stable_baseline.solve inst);
    ("ILP", fun inst -> Arap_ilp.solve inst);
    ("BRGG", fun inst -> Brgg.solve inst);
    ("Greedy", fun inst -> Greedy.solve inst);
    ("SDGA", fun inst -> Sdga.solve inst);
    ( "SDGA-SRA",
      fun inst ->
        let rng = rng_for t 4242 in
        Sra.refine ~ctx:(Ctx.make ~rng ()) inst (Sdga.solve inst) );
  ]

let section t title =
  Format.fprintf t.fmt "@.== %s ==@.@." title

let note t fmt_str = Format.fprintf t.fmt fmt_str
