module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
open Wgrap
open Wgrap_baselines

let random_instance ?(dim = 6) ?coi rng ~n_p ~n_r ~dp =
  let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
  let vec () = Rng.dirichlet_sym rng ~alpha:0.4 ~dim in
  Instance.create_exn ?coi
    ~papers:(Array.init n_p (fun _ -> vec ()))
    ~reviewers:(Array.init n_r (fun _ -> vec ()))
    ~delta_p:dp ~delta_r:dr ()

let solvers =
  [
    ("SM", Stable_baseline.solve);
    ("ILP", Arap_ilp.solve);
    ("BRGG", fun inst -> Brgg.solve inst);
    ("Greedy", fun inst -> Greedy.solve inst);
    ("Greedy-rescan", fun inst -> Greedy.solve_rescan inst);
    ("SDGA", fun inst -> Sdga.solve inst);
  ]

(* Every solver must return a feasible assignment on random instances,
   including tight-workload ones. *)
let solver_feasibility (name, solve) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s returns feasible assignments" name)
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 5 + Rng.int rng 10 in
      let n_p = n_r + Rng.int rng 30 in
      let dp = 2 + Rng.int rng (min 3 (n_r - 1)) in
      let inst = random_instance rng ~n_p ~n_r ~dp in
      Assignment.is_feasible inst (solve inst))

let solver_feasibility_with_coi (name, solve) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s respects COIs" name)
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 8 + Rng.int rng 8 in
      let n_p = 12 + Rng.int rng 12 in
      let dp = 2 in
      (* A sprinkle of conflicts, at most one per paper. *)
      let coi =
        List.init n_p (fun p ->
            if Rng.uniform rng < 0.4 then Some (p, Rng.int rng n_r) else None)
        |> List.filter_map Fun.id
      in
      let inst = random_instance ~coi rng ~n_p ~n_r ~dp in
      Assignment.is_feasible inst (solve inst))

(* {1 Ordering properties the paper establishes} *)

let test_arap_ilp_dominates_pair_objective () =
  (* ILP is exact for the per-pair objective, so nothing beats it there. *)
  let rng = Rng.create 21 in
  for _ = 1 to 10 do
    let inst = random_instance rng ~n_p:20 ~n_r:9 ~dp:2 in
    let ilp = Arap_ilp.solve inst in
    let ilp_obj = Arap_ilp.pair_objective inst ilp in
    List.iter
      (fun (name, solve) ->
        let other = Arap_ilp.pair_objective inst (solve inst) in
        Alcotest.(check bool)
          (Printf.sprintf "ILP pair objective >= %s" name)
          true
          (ilp_obj >= other -. 1e-9))
      [ ("SM", Stable_baseline.solve); ("SDGA", fun inst -> Sdga.solve inst) ]
  done

let test_sdga_beats_its_guarantee () =
  (* c(SDGA) >= 1/2 * c(A_I) >= 1/2 * c(O) — use the ideal as the bound. *)
  let rng = Rng.create 22 in
  for _ = 1 to 10 do
    let inst = random_instance rng ~n_p:24 ~n_r:10 ~dp:3 in
    let ratio = Metrics.optimality_ratio inst (Sdga.solve inst) in
    Alcotest.(check bool)
      (Printf.sprintf "ratio %.3f >= 0.5" ratio)
      true (ratio >= 0.5)
  done

let test_approximation_ratio_formula () =
  Alcotest.(check (float 1e-12)) "integral dp=2" 0.75
    (Sdga.approximation_ratio ~delta_p:2 ~integral:true);
  Alcotest.(check (float 1e-12)) "general dp=2" 0.5
    (Sdga.approximation_ratio ~delta_p:2 ~integral:false);
  Alcotest.(check (float 1e-9)) "general dp=3" (5. /. 9.)
    (Sdga.approximation_ratio ~delta_p:3 ~integral:false);
  (* Approaches 1 - 1/e from below as delta_p grows. *)
  Alcotest.(check bool) "monotone toward 1-1/e" true
    (Sdga.approximation_ratio ~delta_p:10 ~integral:false
    > Sdga.approximation_ratio ~delta_p:3 ~integral:false)

(* Stage-WGRAP optimality, checked against the paper's other classic
   solver: min-cost flow over a gain matrix built here with the dense
   [Scoring.gain] kernel, on instances with conflicts, partly filled
   groups and uneven capacities. Both sides must agree on feasibility
   too. *)
let test_stage_matches_flow_optimum () =
  let rng = Rng.create 23 in
  for _ = 1 to 30 do
    let n_r = 6 + Rng.int rng 6 in
    let n_p = 8 + Rng.int rng 12 in
    let coi =
      List.init (n_p / 2) (fun _ -> (Rng.int rng n_p, Rng.int rng n_r))
    in
    let inst = random_instance ~coi rng ~n_p ~n_r ~dp:3 in
    let current = Assignment.empty ~n_papers:n_p in
    for p = 0 to n_p - 1 do
      for _ = 1 to Rng.int rng 3 do
        let r = Rng.int rng n_r in
        if
          (not (List.mem r (Assignment.group current p)))
          && not (Instance.forbidden inst ~paper:p ~reviewer:r)
        then Assignment.add current ~paper:p ~reviewer:r
      done
    done;
    let capacity = Array.init n_r (fun _ -> Rng.int rng 4) in
    let score =
      Array.init n_p (fun p ->
          let group = Assignment.group_vector inst current p in
          let members = Assignment.group current p in
          Array.init n_r (fun r ->
              if
                capacity.(r) = 0 || List.mem r members
                || Instance.forbidden inst ~paper:p ~reviewer:r
              then Lap.Hungarian.forbidden
              else
                Scoring.gain inst.Instance.scoring ~group
                  inst.Instance.reviewers.(r) inst.Instance.papers.(p)))
    in
    let gm = Gain_matrix.create inst in
    for p = 0 to n_p - 1 do
      Gain_matrix.set_group gm ~paper:p (Assignment.group current p)
    done;
    let optimum =
      match
        Lap.Mcmf.transportation ~row_supply:(Array.make n_p 1)
          ~col_capacity:capacity score
      with
      | flows ->
          let total = ref 0. in
          Array.iteri
            (fun p rs -> List.iter (fun r -> total := !total +. score.(p).(r)) rs)
            flows;
          Some !total
      | exception Failure _ -> None
    in
    let stage =
      match Stage.solve ~gains:gm inst ~current ~capacity with
      | pairs ->
          Alcotest.(check int) "one pair per paper" n_p (List.length pairs);
          List.iter
            (fun (p, r) ->
              Alcotest.(check bool) "pair allowed" true
                (score.(p).(r) <> Lap.Hungarian.forbidden))
            pairs;
          Some (List.fold_left (fun acc (p, r) -> acc +. score.(p).(r)) 0. pairs)
      | exception Failure _ -> None
    in
    Alcotest.(check (option (float 1e-9))) "stage total = flow optimum" optimum
      stage
  done

let test_greedy_lazy_equals_rescan_quality () =
  let rng = Rng.create 24 in
  for _ = 1 to 10 do
    let inst = random_instance rng ~n_p:18 ~n_r:8 ~dp:2 in
    let a = Assignment.coverage inst (Greedy.solve inst) in
    let b = Assignment.coverage inst (Greedy.solve_rescan inst) in
    (* Both are valid greedy runs; gain ties can cascade into slightly
       different totals, so agreement is approximate. *)
    Alcotest.(check bool)
      (Printf.sprintf "lazy %.6f vs rescan %.6f" a b)
      true
      (Float.abs (a -. b) /. Float.max 1. (Float.abs b) < 0.01)
  done

(* {1 Stage-WGRAP} *)

let test_stage_assigns_every_paper_once () =
  let rng = Rng.create 25 in
  let inst = random_instance rng ~n_p:12 ~n_r:6 ~dp:2 in
  let current = Assignment.empty ~n_papers:12 in
  let capacity = Array.make 6 4 in
  let pairs = Stage.solve ~gains:(Gain_matrix.create inst) inst ~current ~capacity in
  Alcotest.(check int) "one pair per paper" 12 (List.length pairs);
  let papers = List.map fst pairs in
  Alcotest.(check (list int)) "each paper once"
    (List.init 12 Fun.id) (List.sort compare papers);
  (* Capacity respected. *)
  let used = Array.make 6 0 in
  List.iter (fun (_, r) -> used.(r) <- used.(r) + 1) pairs;
  Array.iter (fun u -> Alcotest.(check bool) "capacity" true (u <= 4)) used

let test_stage_avoids_current_group () =
  let inst =
    Instance.create_exn
      ~papers:[| [| 1.; 0. |] |]
      ~reviewers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~delta_p:2 ~delta_r:1 ()
  in
  let current = Assignment.of_pairs ~n_papers:1 [ (0, 0) ] in
  let gains = Gain_matrix.create inst in
  Gain_matrix.set_group gains ~paper:0 [ 0 ];
  let capacity = [| 1; 1 |] in
  let pairs = Stage.solve ~gains inst ~current ~capacity in
  Alcotest.(check (list (pair int int))) "must pick the other reviewer"
    [ (0, 1) ] pairs

let test_stage_maximizes_gain () =
  (* Two papers, two reviewers, capacity 1 each: the stage must pick the
     matching that maximizes total gain, not a greedy per-paper pick. *)
  let inst =
    Instance.create_exn
      ~papers:[| [| 1.; 0. |]; [| 0.6; 0.4 |] |]
      ~reviewers:[| [| 1.; 0. |]; [| 0.6; 0.4 |] |]
      ~delta_p:1 ~delta_r:1 ()
  in
  let current = Assignment.empty ~n_papers:2 in
  let pairs =
    Stage.solve ~gains:(Gain_matrix.create inst) inst ~current
      ~capacity:[| 1; 1 |]
  in
  let sorted = List.sort compare pairs in
  Alcotest.(check (list (pair int int))) "identity matching"
    [ (0, 0); (1, 1) ] sorted

let test_stage_custom_pair_gain () =
  (* A pair_gain that inverts preferences must flip the stage's choice. *)
  let inst =
    Instance.create_exn
      ~papers:[| [| 1.; 0. |] |]
      ~reviewers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~delta_p:1 ~delta_r:1 ()
  in
  let current = Assignment.empty ~n_papers:1 in
  let capacity = [| 1; 1 |] in
  let gains = Gain_matrix.create inst in
  let plain = Stage.solve ~gains inst ~current ~capacity in
  Alcotest.(check (list (pair int int))) "plain picks the matching reviewer"
    [ (0, 0) ] plain;
  let inverted =
    Stage.solve
      ~pair_gain:(fun ~paper:_ ~reviewer:_ ~coverage_gain -> -.coverage_gain)
      ~gains inst ~current ~capacity
  in
  Alcotest.(check (list (pair int int))) "inverted gain flips the choice"
    [ (0, 1) ] inverted

(* {1 SRA} *)

let test_sra_never_worse () =
  let rng = Rng.create 27 in
  for _ = 1 to 5 do
    let inst = random_instance rng ~n_p:20 ~n_r:8 ~dp:2 in
    let sdga = Sdga.solve inst in
    let refined = Sra.refine ~ctx:(Ctx.make ~rng ()) inst sdga in
    Alcotest.(check bool) "feasible" true (Assignment.is_feasible inst refined);
    Alcotest.(check bool) "no regression" true
      (Assignment.coverage inst refined >= Assignment.coverage inst sdga -. 1e-9)
  done

let test_sra_trace_monotone () =
  let rng = Rng.create 28 in
  let inst = random_instance rng ~n_p:16 ~n_r:8 ~dp:2 in
  let sdga = Sdga.solve inst in
  let bests = ref [] in
  let _ =
    Sra.refine
      ~params:{ Sra.default_params with omega = 5 }
      ~on_round:(fun ~round:_ ~elapsed:_ ~best -> bests := best :: !bests)
      ~ctx:(Ctx.make ~rng ()) inst sdga
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && monotone rest
    | _ -> true
  in
  (* bests is reversed (newest first), so it must be non-increasing. *)
  Alcotest.(check bool) "best-so-far never decreases" true (monotone !bests);
  Alcotest.(check bool) "ran some rounds" true (List.length !bests >= 5)

let test_sra_deadline_respected () =
  let rng = Rng.create 29 in
  let inst = random_instance rng ~n_p:16 ~n_r:8 ~dp:2 in
  let sdga = Sdga.solve inst in
  let _, dt =
    Timer.time (fun () ->
        Sra.refine
          ~params:{ Sra.default_params with omega = 1_000_000 }
          ~ctx:(Ctx.make ~budget:0.05 ~rng ())
          inst sdga)
  in
  Alcotest.(check bool) "stops near the deadline" true (dt < 2.)

(* Test-local Eq. 9 reference: column sums of the dense score matrix,
   COI cells excluded. *)
let column_sums m =
  let sums = Array.make (Array.length m.(0)) 0. in
  Array.iter
    (Array.iteri (fun r s ->
         if s <> Lap.Hungarian.forbidden then sums.(r) <- sums.(r) +. s))
    m;
  sums

let test_keep_probability_bounds () =
  let rng = Rng.create 30 in
  let inst = random_instance rng ~n_p:10 ~n_r:6 ~dp:2 in
  let m = Instance.score_matrix inst in
  let denom = Gain_matrix.column_denominators (Gain_matrix.create inst) in
  Alcotest.(check (array (float 0.))) "Eq. 9 sums" (column_sums m) denom;
  for p = 0 to 9 do
    for r = 0 to 5 do
      let prob =
        Sra.keep_probability ~denom ~score:m.(p).(r) ~round:3 ~lambda:0.05
          ~reviewer:r
      in
      Alcotest.(check bool) "within (0, 1]" true
        (prob >= 1. /. 6. -. 1e-12 && prob <= 1. +. 1e-12)
    done
  done

let test_keep_probability_decays () =
  let rng = Rng.create 31 in
  let inst = random_instance rng ~n_p:10 ~n_r:6 ~dp:2 in
  let m = Instance.score_matrix inst in
  let denom = column_sums m in
  let at round =
    Sra.keep_probability ~denom ~score:m.(0).(0) ~round ~lambda:0.5 ~reviewer:0
  in
  Alcotest.(check bool) "decays toward the floor" true (at 1 >= at 50 -. 1e-12);
  Alcotest.(check (float 1e-12)) "floor is 1/R" (1. /. 6.) (at 1_000)

(* {1 Local search} *)

let test_local_search_never_worse () =
  let rng = Rng.create 32 in
  for _ = 1 to 5 do
    let inst = random_instance rng ~n_p:15 ~n_r:8 ~dp:2 in
    let start = Sdga.solve inst in
    let refined = Local_search.refine ~rng inst start in
    Alcotest.(check bool) "feasible" true (Assignment.is_feasible inst refined);
    Alcotest.(check bool) "no regression" true
      (Assignment.coverage inst refined >= Assignment.coverage inst start -. 1e-9)
  done

let test_local_search_improves_bad_start () =
  (* Start from a deliberately mismatched assignment. *)
  let inst =
    Instance.create_exn
      ~papers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~reviewers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~delta_p:1 ~delta_r:1 ()
  in
  let bad = Assignment.of_pairs ~n_papers:2 [ (1, 0); (0, 1) ] in
  let rng = Rng.create 33 in
  let refined = Local_search.refine ~rng inst bad in
  Alcotest.(check (float 1e-9)) "swap found" 2. (Assignment.coverage inst refined)

(* {1 Stable matching} *)

let test_sm_stable_when_loose () =
  (* Loose capacity: no repair pass, so stability must hold. *)
  let rng = Rng.create 34 in
  for _ = 1 to 10 do
    let n_p = 8 and n_r = 8 in
    let dp = 2 in
    let vec () = Rng.dirichlet_sym rng ~alpha:0.4 ~dim:5 in
    let inst =
      Instance.create_exn
        ~papers:(Array.init n_p (fun _ -> vec ()))
        ~reviewers:(Array.init n_r (fun _ -> vec ()))
        ~delta_p:dp ~delta_r:n_p ()
    in
    let a = Stable_baseline.solve inst in
    Alcotest.(check bool) "feasible" true (Assignment.is_feasible inst a);
    Alcotest.(check bool) "stable" true (Stable_baseline.is_stable inst a)
  done

(* {1 Metrics} *)

let test_ideal_upper_bounds_everything () =
  let rng = Rng.create 35 in
  let inst = random_instance rng ~n_p:15 ~n_r:8 ~dp:2 in
  let ideal = Metrics.ideal inst in
  let c_ideal = Assignment.coverage inst ideal in
  List.iter
    (fun (name, solve) ->
      let c = Assignment.coverage inst (solve inst) in
      Alcotest.(check bool)
        (Printf.sprintf "c(%s) <= c(A_I)" name)
        true
        (c <= c_ideal +. 1e-9))
    solvers

let test_superiority_sums_to_one () =
  let rng = Rng.create 36 in
  let inst = random_instance rng ~n_p:20 ~n_r:8 ~dp:2 in
  let x = Sdga.solve inst and y = Stable_baseline.solve inst in
  let s_xy = Metrics.superiority inst x y in
  let s_yx = Metrics.superiority inst y x in
  Alcotest.(check (float 1e-9)) "partition"
    1.
    (s_xy.Metrics.better +. s_yx.Metrics.better +. s_xy.Metrics.tie);
  Alcotest.(check (float 1e-9)) "tie symmetric" s_xy.Metrics.tie s_yx.Metrics.tie

let test_superiority_self_is_all_ties () =
  let rng = Rng.create 37 in
  let inst = random_instance rng ~n_p:10 ~n_r:6 ~dp:2 in
  let a = Sdga.solve inst in
  let s = Metrics.superiority inst a a in
  Alcotest.(check (float 1e-12)) "no strict better" 0. s.Metrics.better;
  Alcotest.(check (float 1e-12)) "all ties" 1. s.Metrics.tie

let test_lowest_coverage () =
  let inst =
    Instance.create_exn
      ~papers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~reviewers:[| [| 1.; 0. |]; [| 0.5; 0.5 |] |]
      ~delta_p:1 ~delta_r:1 ()
  in
  let a = Assignment.of_pairs ~n_papers:2 [ (0, 0); (1, 1) ] in
  Alcotest.(check (float 1e-9)) "min paper score" 0.5
    (Metrics.lowest_coverage inst a)

let test_case_study_shape () =
  let rng = Rng.create 38 in
  let inst = random_instance ~dim:8 rng ~n_p:10 ~n_r:6 ~dp:3 in
  let a = Sdga.solve inst in
  let cs = Metrics.case_study inst a ~paper:2 ~k:5 in
  Alcotest.(check int) "topics" 5 (List.length cs.Metrics.topics);
  Alcotest.(check int) "paper weights" 5 (Array.length cs.Metrics.paper_weights);
  Alcotest.(check int) "members" 3 (List.length cs.Metrics.member_weights);
  Alcotest.(check (float 1e-9)) "score matches"
    (Assignment.paper_score inst a 2)
    cs.Metrics.score

(* {1 Degenerate instances} *)

let test_identical_reviewers () =
  (* All ties everywhere: solvers must still return feasible output. *)
  let papers = Array.make 10 [| 0.5; 0.5 |] in
  let reviewers = Array.make 5 [| 0.5; 0.5 |] in
  let inst = Instance.create_exn ~papers ~reviewers ~delta_p:2 ~delta_r:4 () in
  List.iter
    (fun (name, solve) ->
      Alcotest.(check bool) (name ^ " feasible on ties") true
        (Assignment.is_feasible inst (solve inst)))
    solvers

let test_zero_mass_paper () =
  (* A paper with an all-zero vector scores 0 with any group but must
     still receive delta_p reviewers. *)
  let papers = [| [| 0.; 0. |]; [| 1.; 0. |] |] in
  let reviewers = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let inst = Instance.create_exn ~papers ~reviewers ~delta_p:2 ~delta_r:2 () in
  List.iter
    (fun (name, solve) ->
      let a = solve inst in
      Alcotest.(check bool) (name ^ " feasible") true (Assignment.is_feasible inst a);
      Alcotest.(check (float 1e-9)) (name ^ " zero paper scores 0") 0.
        (Assignment.paper_score inst a 0))
    solvers

let test_group_is_whole_committee () =
  (* delta_p = R: the only feasible group is everyone. *)
  let rng = Rng.create 51 in
  let inst = random_instance rng ~n_p:3 ~n_r:4 ~dp:4 in
  List.iter
    (fun (name, solve) ->
      let a = solve inst in
      Alcotest.(check bool) (name ^ " feasible") true (Assignment.is_feasible inst a);
      for p = 0 to 2 do
        Alcotest.(check (list int)) (name ^ " full committee") [ 0; 1; 2; 3 ]
          (List.sort compare (Assignment.group a p))
      done)
    solvers

let test_single_paper_instance () =
  let rng = Rng.create 52 in
  let inst = random_instance rng ~n_p:1 ~n_r:6 ~dp:3 in
  List.iter
    (fun (name, solve) ->
      Alcotest.(check bool) (name ^ " feasible") true
        (Assignment.is_feasible inst (solve inst)))
    solvers;
  (* And the CRA solution for one paper cannot beat the JRA optimum. *)
  let best = Jra_bba.solve (Jra.of_instance inst ~paper:0) in
  let sdga = Sdga.solve inst in
  Alcotest.(check bool) "JRA optimum dominates" true
    (best.Jra.score >= Assignment.paper_score inst sdga 0 -. 1e-9)

(* {1 Repair} *)

let test_repair_completes_partial () =
  let rng = Rng.create 39 in
  let inst = random_instance rng ~n_p:10 ~n_r:6 ~dp:2 in
  let partial = Assignment.empty ~n_papers:10 in
  Assignment.add partial ~paper:0 ~reviewer:0;
  Repair.complete inst partial;
  Alcotest.(check bool) "feasible after repair" true
    (Assignment.is_feasible inst partial)

let test_repair_uses_chain () =
  (* Tight instance where the only spare capacity sits inside p0's group:
     2 papers, 2 reviewers, dp=1, dr=1; p1 already holds r0 and p0 holds
     nothing, but suppose p0 cannot take r1 directly... construct:
     3 reviewers, dp=2, p0 holds {r0,r1}, spare is r2 but r2 in... use a
     scenario validated by outcome feasibility instead. *)
  let inst =
    Instance.create_exn
      ~papers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~reviewers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~delta_p:1 ~delta_r:1 ()
  in
  let partial = Assignment.empty ~n_papers:2 in
  (* p1 grabs r1 — p0 must get r0. *)
  Assignment.add partial ~paper:1 ~reviewer:1;
  Repair.complete inst partial;
  Alcotest.(check bool) "feasible" true (Assignment.is_feasible inst partial);
  Alcotest.(check (list int)) "p0 got r0" [ 0 ] (Assignment.group partial 0)

(* Pathological: every reviewer p1 could take is either conflicted or at
   capacity with no feasible reassignment chain — completion must fail
   loudly, and {!Solver.cra} must turn that into [Infeasible]. *)
let infeasible_chain_instance () =
  (* 2 papers, 2 reviewers, dp=1, dr=1. p0 already holds r0; p1
     conflicts with r1 (its only other option) AND with r0, so no chain
     can free capacity for it. *)
  Instance.create_exn
    ~papers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
    ~reviewers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
    ~coi:[ (1, 0); (1, 1) ] ~delta_p:1 ~delta_r:1 ()

let test_repair_infeasible_chain () =
  let inst = infeasible_chain_instance () in
  let partial = Assignment.empty ~n_papers:2 in
  Assignment.add partial ~paper:0 ~reviewer:0;
  (match Repair.complete inst partial with
  | () -> Alcotest.fail "repair fabricated an impossible assignment"
  | exception Failure _ -> ());
  (* The harness wraps the same dead end in a labeled [Infeasible]. *)
  match Solver.cra inst with
  | Solver.Infeasible msg ->
      Alcotest.(check bool) "reason given" true (String.length msg > 0)
  | Solver.Complete a | Solver.Degraded (a, _) -> (
      match Assignment.validate inst a with
      | Ok () -> Alcotest.fail "validation accepted a saturated COI paper"
      | Error _ -> Alcotest.fail "harness returned an invalid assignment")

let test_repair_chain_frees_capacity () =
  (* Same shape but only (1,1) conflicts: p1's sole option r0 is held
     by p0 at capacity, yet a one-step chain exists — move p0 onto the
     free r1 and hand r0 to p1. *)
  let inst =
    Instance.create_exn
      ~papers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~reviewers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~coi:[ (1, 1) ] ~delta_p:1 ~delta_r:1 ()
  in
  let partial = Assignment.empty ~n_papers:2 in
  Assignment.add partial ~paper:0 ~reviewer:0;
  Repair.complete inst partial;
  Alcotest.(check bool) "feasible" true (Assignment.is_feasible inst partial);
  Alcotest.(check (list int)) "p1 got r0" [ 0 ] (Assignment.group partial 1);
  Alcotest.(check (list int)) "p0 moved to r1" [ 1 ] (Assignment.group partial 0)

let () =
  Alcotest.run "cra"
    [
      ("feasibility", List.map (fun s -> QCheck_alcotest.to_alcotest (solver_feasibility s)) solvers);
      ("coi", List.map (fun s -> QCheck_alcotest.to_alcotest (solver_feasibility_with_coi s)) solvers);
      ( "quality",
        [
          Alcotest.test_case "arap ilp dominates pair objective" `Quick test_arap_ilp_dominates_pair_objective;
          Alcotest.test_case "sdga beats 1/2 guarantee" `Quick test_sdga_beats_its_guarantee;
          Alcotest.test_case "approximation ratio formula" `Quick test_approximation_ratio_formula;
          Alcotest.test_case "stage = min-cost-flow optimum" `Quick test_stage_matches_flow_optimum;
          Alcotest.test_case "greedy lazy = rescan quality" `Quick test_greedy_lazy_equals_rescan_quality;
        ] );
      ( "stage",
        [
          Alcotest.test_case "custom pair gain" `Quick test_stage_custom_pair_gain;
          Alcotest.test_case "assigns every paper once" `Quick test_stage_assigns_every_paper_once;
          Alcotest.test_case "avoids current group" `Quick test_stage_avoids_current_group;
          Alcotest.test_case "maximizes total gain" `Quick test_stage_maximizes_gain;
        ] );
      ( "sra",
        [
          Alcotest.test_case "never worse" `Quick test_sra_never_worse;
          Alcotest.test_case "trace monotone" `Quick test_sra_trace_monotone;
          Alcotest.test_case "deadline" `Quick test_sra_deadline_respected;
          Alcotest.test_case "removal probability bounds" `Quick test_keep_probability_bounds;
          Alcotest.test_case "removal probability decays" `Quick test_keep_probability_decays;
        ] );
      ( "local_search",
        [
          Alcotest.test_case "never worse" `Quick test_local_search_never_worse;
          Alcotest.test_case "improves bad start" `Quick test_local_search_improves_bad_start;
        ] );
      ( "stable_matching",
        [ Alcotest.test_case "stable when loose" `Quick test_sm_stable_when_loose ] );
      ( "metrics",
        [
          Alcotest.test_case "ideal upper bounds" `Quick test_ideal_upper_bounds_everything;
          Alcotest.test_case "superiority partition" `Quick test_superiority_sums_to_one;
          Alcotest.test_case "superiority self" `Quick test_superiority_self_is_all_ties;
          Alcotest.test_case "lowest coverage" `Quick test_lowest_coverage;
          Alcotest.test_case "case study shape" `Quick test_case_study_shape;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "identical reviewers" `Quick test_identical_reviewers;
          Alcotest.test_case "zero-mass paper" `Quick test_zero_mass_paper;
          Alcotest.test_case "whole committee groups" `Quick test_group_is_whole_committee;
          Alcotest.test_case "single paper" `Quick test_single_paper_instance;
        ] );
      ( "repair",
        [
          Alcotest.test_case "completes partial" `Quick test_repair_completes_partial;
          Alcotest.test_case "forced choice" `Quick test_repair_uses_chain;
          Alcotest.test_case "infeasible chain fails loudly" `Quick
            test_repair_infeasible_chain;
          Alcotest.test_case "chain frees capacity" `Quick
            test_repair_chain_frees_capacity;
        ] );
    ]
