(* The objective-oracle suite: the pluggable Objective backends against
   independent oracles.

   - coverage parity: binding the explicit Coverage spec is
     bit-identical to the default path on every solver entry (the
     refactor moved scoring behind Objective without changing it);
   - binding: [Objective.bind] hands back the very instance it was
     given, for every backend, so solvers score the instance they were
     called with;
   - min: the value is the worst per-paper coverage, the routing
     flags, and the greedy-seeded chain stays feasible;
   - fairness: Summary's Gini and topic-balance against direct
     recomputations from the per-paper scores. *)

module Rng = Wgrap_util.Rng
open Wgrap

let random_instance ?(dim = 6) ?coi rng ~n_p ~n_r ~dp =
  let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
  let vec () = Rng.dirichlet_sym rng ~alpha:0.4 ~dim in
  Instance.create_exn ?coi
    ~papers:(Array.init n_p (fun _ -> vec ()))
    ~reviewers:(Array.init n_r (fun _ -> vec ()))
    ~delta_p:dp ~delta_r:dr ()

(* {1 Coverage parity} *)

(* The default ctx and an explicit-coverage ctx must be bit-identical:
   Objective.Coverage is the parity oracle of the whole refactor. The
   rng is rebuilt from the seed on each side, so stochastic links (SRA)
   see identical streams. *)
let coverage_parity_test =
  QCheck.Test.make ~name:"explicit Coverage spec is bit-identical" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let fresh () =
        let rng = Rng.create seed in
        let n_r = 5 + Rng.int rng 8 in
        let n_p = n_r + Rng.int rng 20 in
        let dp = 2 + Rng.int rng 2 in
        random_instance rng ~n_p ~n_r ~dp
      in
      let inst = fresh () in
      let plain () = Ctx.make ~seed () in
      let explicit () = Ctx.make ~seed ~objective:Objective.coverage () in
      let pairs =
        [
          ( Sdga.solve ~ctx:(plain ()) inst,
            Sdga.solve ~ctx:(explicit ()) inst );
          ( Greedy.solve ~ctx:(plain ()) inst,
            Greedy.solve ~ctx:(explicit ()) inst );
          ( (let seeded = Sdga.solve ~ctx:(plain ()) inst in
             Sra.refine ~ctx:(plain ()) inst seeded),
            let seeded = Sdga.solve ~ctx:(explicit ()) inst in
            Sra.refine ~ctx:(explicit ()) inst seeded );
        ]
      in
      let cra_pair =
        match
          ( Solver.value (Solver.cra ~ctx:(plain ()) inst),
            Solver.value (Solver.cra ~ctx:(explicit ()) inst) )
        with
        | Some a, Some b -> [ (a, b) ]
        | _ -> []
      in
      List.for_all (fun (a, b) -> Assignment.equal a b) (pairs @ cra_pair))

(* {1 Binding} *)

(* Solvers score the instance they were called with and share gain
   matrices built over it, so binding must never copy or rewrite it. *)
let bind_keeps_instance =
  QCheck.Test.make ~name:"bind returns the instance it was given" ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 3 + Rng.int rng 8 in
      let n_p = n_r + Rng.int rng 12 in
      let inst = random_instance rng ~n_p ~n_r ~dp:2 in
      let bids =
        Array.init n_p (fun _ -> Array.init n_r (fun _ -> Rng.uniform rng))
      in
      List.for_all
        (fun spec -> Objective.view (Objective.bind spec inst) == inst)
        [
          Objective.coverage;
          Objective.min_coverage;
          Objective.blend ~lambda:(Rng.uniform rng) bids;
        ])

(* {1 Min} *)

let test_min_value_is_worst_paper () =
  let rng = Rng.create 41 in
  let inst = random_instance rng ~n_p:14 ~n_r:7 ~dp:2 in
  let a = Sdga.solve inst in
  let obj = Objective.bind Objective.min_coverage inst in
  let scores = Objective.per_paper_scores obj a in
  let worst = Array.fold_left Float.min Float.infinity scores in
  Alcotest.(check (float 1e-9))
    "min objective value = worst per-paper coverage" worst
    (Objective.value obj a);
  Alcotest.(check string) "min is named min" "min"
    (Objective.name Objective.min_coverage)

let test_routing_flags () =
  Alcotest.(check bool) "coverage submodular" true
    (Objective.submodular Objective.coverage);
  Alcotest.(check bool) "min not submodular" false
    (Objective.submodular Objective.min_coverage)

(* The non-submodular min must still come back feasible through the
   greedy-seeded chain Solver.cra routes for it. *)
let min_chain_feasibility =
  QCheck.Test.make ~name:"cra under min/owa returns feasible" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 5 + Rng.int rng 6 in
      let n_p = n_r + Rng.int rng 12 in
      let inst = random_instance rng ~n_p ~n_r ~dp:2 in
      let ctx = Ctx.make ~seed ~objective:Objective.min_coverage () in
      match Solver.value (Solver.cra ~ctx inst) with
      | Some a -> Assignment.is_feasible inst a
      | None -> false)

(* {1 Fairness metrics} *)

let gini_oracle scores =
  let n = Array.length scores in
  let total = Array.fold_left ( +. ) 0. scores in
  if n = 0 || total <= 0. then 0.
  else begin
    let acc = ref 0. in
    Array.iter
      (fun x -> Array.iter (fun y -> acc := !acc +. Float.abs (x -. y)) scores)
      scores;
    !acc /. (2. *. float_of_int n *. total)
  end

let dominant_topic vec =
  let best = ref 0 in
  Array.iteri (fun i x -> if x > vec.(!best) then best := i) vec;
  !best

let topic_balance_oracle inst scores =
  let dim = Instance.n_topics inst in
  let sum = Array.make dim 0. and count = Array.make dim 0 in
  Array.iteri
    (fun p s ->
      let t = dominant_topic inst.Instance.papers.(p) in
      sum.(t) <- sum.(t) +. s;
      count.(t) <- count.(t) + 1)
    scores;
  let lo = ref Float.infinity and hi = ref 0. in
  for t = 0 to dim - 1 do
    if count.(t) > 0 then begin
      let mean = sum.(t) /. float_of_int count.(t) in
      if mean < !lo then lo := mean;
      if mean > !hi then hi := mean
    end
  done;
  if !hi <= 0. then 1. else !lo /. !hi

let fairness_matches_oracles =
  QCheck.Test.make ~name:"Summary fairness metrics match direct recomputation"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 5 + Rng.int rng 6 in
      let n_p = n_r + Rng.int rng 15 in
      let inst = random_instance rng ~n_p ~n_r ~dp:2 in
      let a = Sdga.solve inst in
      let s = Summary.compute inst a in
      let scores =
        Objective.per_paper_scores (Objective.bind Objective.coverage inst) a
      in
      Float.abs (s.Summary.coverage_gini -. gini_oracle scores) <= 1e-9
      && Float.abs (s.Summary.topic_balance -. topic_balance_oracle inst scores)
         <= 1e-9)

let test_summary_json_shape () =
  let rng = Rng.create 44 in
  let inst = random_instance rng ~n_p:8 ~n_r:5 ~dp:2 in
  let a = Sdga.solve inst in
  let s = Summary.compute ~objective:Objective.min_coverage inst a in
  let contains ~sub s =
    let ls = String.length s and lb = String.length sub in
    let rec scan i = i + lb <= ls && (String.sub s i lb = sub || scan (i + 1)) in
    scan 0
  in
  let compact = Summary.to_json ~compact:true s in
  Alcotest.(check bool) "compact is one line" false (String.contains compact '\n');
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (contains ~sub:key compact))
    [
      {|"objective"|}; {|"name": "min"|}; {|"fairness"|}; {|"gini"|};
      {|"topic_balance"|}; {|"workload"|}; {|"coi_violations"|};
    ];
  let extra = Summary.to_json ~compact:true ~extra:[ ("k", "1") ] s in
  Alcotest.(check bool) "extra fields lead" true
    (contains ~sub:{|{"k": 1|} extra)

(* The fairness gate, the reason min exists: on a contested
   committee, Solver.cra under it must beat plain coverage on both the
   worst-off paper and the Gini spread. The committee is the quick
   preset (seed 2015) with its reviewer pool cut to ~1.1x the slot
   demand and delta_r retightened to the minimum feasible workload;
   with the preset's full pool every objective parks each paper at its
   coverage ceiling and there is nothing to trade. *)
let test_fairness_beats_coverage () =
  let base =
    Dataset.Synthetic.instance_of_preset ~seed:2015
      Dataset.Synthetic.quick_preset
  in
  let n_p = Instance.n_papers base and dp = base.Instance.delta_p in
  let n_r = n_p * dp * 11 / 10 / base.Instance.delta_r in
  let inst =
    Instance.create_exn ~papers:base.Instance.papers
      ~reviewers:(Array.sub base.Instance.reviewers 0 n_r)
      ~delta_p:dp
      ~delta_r:(Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp)
      ()
  in
  let profile spec =
    let ctx = Ctx.make ~seed:2015 ~objective:spec () in
    match Solver.value (Solver.cra ~ctx inst) with
    | None -> Alcotest.fail "scarce committee: infeasible"
    | Some a ->
        let s = Summary.compute ~objective:spec inst a in
        (s.Summary.coverage_min, s.Summary.coverage_gini)
  in
  let cov_min, cov_gini = profile Objective.coverage in
  let fair_min, fair_gini = profile Objective.min_coverage in
  Printf.printf "min: min %.4f (coverage %.4f), gini %.4f (coverage %.4f)\n"
    fair_min cov_min fair_gini cov_gini;
  if not (fair_min > cov_min && fair_gini < cov_gini) then
    Alcotest.failf
      "min does not beat coverage: min %.4f vs %.4f, gini %.4f vs %.4f"
      fair_min cov_min fair_gini cov_gini

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "objective"
    [
      ( "parity",
        qsuite [ coverage_parity_test ] );
      ("binding", qsuite [ bind_keeps_instance ]);
      (* The "owa" group and the OWA wording in three case names date
         from the weighted backend [Min] replaced; they are kept so the
         case ids stay stable across that change. *)
      ( "owa",
        Alcotest.test_case "min = unit-weight OWA" `Quick
          test_min_value_is_worst_paper
        :: Alcotest.test_case "routing flags" `Quick test_routing_flags
        :: qsuite [ min_chain_feasibility ] );
      ( "fairness",
        Alcotest.test_case "summary JSON shape" `Quick test_summary_json_shape
        :: Alcotest.test_case "min/owa beat coverage on min and Gini" `Slow
             test_fairness_beats_coverage
        :: qsuite [ fairness_matches_oracles ] );
    ]
