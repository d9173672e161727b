module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
open Wgrap
open Wgrap_baselines

let random_problem ?scoring rng ~dim ~n ~dp =
  let vec () = Array.init dim (fun _ -> Rng.uniform rng) in
  Jra.make ?scoring ~paper:(vec ()) ~pool:(Array.init n (fun _ -> vec ()))
    ~group_size:dp ()

(* {1 Problem construction} *)

let test_make_validation () =
  let paper = [| 0.5; 0.5 |] in
  let pool = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  Alcotest.check_raises "too large group"
    (Invalid_argument "Jra.make: not enough selectable reviewers") (fun () ->
      ignore (Jra.make ~paper ~pool ~group_size:3 ()));
  Alcotest.check_raises "exclusions shrink pool"
    (Invalid_argument "Jra.make: not enough selectable reviewers") (fun () ->
      ignore
        (Jra.make ~excluded:[| true; false |] ~paper ~pool ~group_size:2 ()));
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Jra.make: dimension mismatch") (fun () ->
      ignore (Jra.make ~paper:[| 1. |] ~pool ~group_size:1 ()))

let test_of_instance_carries_coi () =
  let inst =
    Instance.create_exn ~coi:[ (0, 0) ]
      ~papers:[| [| 1.; 0. |] |]
      ~reviewers:[| [| 1.; 0. |]; [| 0.; 1. |] |]
      ~delta_p:1 ~delta_r:1 ()
  in
  let prob = Jra.of_instance inst ~paper:0 in
  Alcotest.(check int) "one selectable" 1 (Jra.available prob);
  let sol = Jra_bba.solve prob in
  Alcotest.(check (list int)) "avoids coi reviewer" [ 1 ] sol.Jra.group

(* {1 BFS} *)

let test_bfs_trivial () =
  let prob =
    Jra.make ~paper:[| 1.; 0. |]
      ~pool:[| [| 0.; 1. |]; [| 1.; 0. |] |]
      ~group_size:1 ()
  in
  let sol = Jra_bfs.solve prob in
  Alcotest.(check (list int)) "picks matching reviewer" [ 1 ] sol.Jra.group;
  Alcotest.(check (float 1e-9)) "score" 1. sol.Jra.score

let test_bfs_counts_combinations () =
  let rng = Rng.create 1 in
  let prob = random_problem rng ~dim:3 ~n:6 ~dp:3 in
  let _, evaluated = Jra_bfs.solve_counting prob in
  Alcotest.(check int) "C(6,3)" 20 evaluated

let test_bfs_whole_pool () =
  let rng = Rng.create 2 in
  let prob = random_problem rng ~dim:3 ~n:4 ~dp:4 in
  let sol = Jra_bfs.solve prob in
  Alcotest.(check (list int)) "everyone" [ 0; 1; 2; 3 ] sol.Jra.group

(* {1 BBA} *)

let bba_matches_bfs scoring =
  QCheck.Test.make
    ~name:(Printf.sprintf "bba = bfs under %s" (Scoring.name scoring))
    ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 1 + Rng.int rng 6 in
      let n = 2 + Rng.int rng 8 in
      let dp = 1 + Rng.int rng (min 4 n) in
      let prob = random_problem ~scoring rng ~dim ~n ~dp in
      let a = Jra_bfs.solve prob and b = Jra_bba.solve prob in
      Float.abs (a.Jra.score -. b.Jra.score) < 1e-9)

let bba_nobound_matches_bfs =
  QCheck.Test.make ~name:"bba without bounding = bfs" ~count:80
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let prob = random_problem rng ~dim:4 ~n:7 ~dp:3 in
      let a = Jra_bfs.solve prob in
      let b = Jra_bba.solve ~use_bound:false prob in
      Float.abs (a.Jra.score -. b.Jra.score) < 1e-9)

let test_bba_respects_exclusions () =
  let paper = [| 1.; 0. |] in
  let pool = [| [| 1.; 0. |]; [| 0.9; 0.1 |]; [| 0.; 1. |] |] in
  let prob = Jra.make ~excluded:[| true; false; false |] ~paper ~pool ~group_size:1 () in
  let sol = Jra_bba.solve prob in
  Alcotest.(check (list int)) "best non-excluded" [ 1 ] sol.Jra.group

let test_bba_group_sorted_distinct () =
  let rng = Rng.create 9 in
  for _ = 1 to 30 do
    let prob = random_problem rng ~dim:4 ~n:8 ~dp:3 in
    let sol = Jra_bba.solve prob in
    Alcotest.(check int) "group size" 3 (List.length sol.Jra.group);
    Alcotest.(check (list int)) "sorted" (List.sort compare sol.Jra.group) sol.Jra.group;
    Alcotest.(check int) "distinct" 3
      (List.length (List.sort_uniq compare sol.Jra.group))
  done

let test_bba_score_consistent () =
  let rng = Rng.create 10 in
  for _ = 1 to 30 do
    let prob = random_problem rng ~dim:5 ~n:8 ~dp:2 in
    let sol = Jra_bba.solve prob in
    Alcotest.(check (float 1e-9)) "score matches group"
      (Jra.score_group prob sol.Jra.group)
      sol.Jra.score
  done

let test_bba_pruning_helps () =
  let rng = Rng.create 11 in
  let prob = random_problem rng ~dim:6 ~n:20 ~dp:3 in
  let nodes use_bound =
    (snd (Jra_bba.solve_counting ~use_bound prob)).Jra_bba.nodes
  in
  let with_bound = nodes true and without = nodes false in
  Alcotest.(check bool)
    (Printf.sprintf "bounded explores fewer nodes (%d < %d)" with_bound without)
    true
    (with_bound < without)

(* Top-k *)

let test_top_k_ordering_and_exactness () =
  let rng = Rng.create 12 in
  for _ = 1 to 20 do
    let prob = random_problem rng ~dim:4 ~n:7 ~dp:2 in
    let k = 5 in
    let top = Jra_bba.top_k prob ~k in
    Alcotest.(check int) "k results" k (List.length top);
    (* Scores must be non-increasing. *)
    let rec check_desc = function
      | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "descending" true (a.Jra.score >= b.Jra.score -. 1e-12);
          check_desc rest
      | _ -> ()
    in
    check_desc top;
    (* Compare score multiset against exhaustive enumeration. *)
    let all_scores = ref [] in
    let n = Array.length prob.Jra.pool in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        all_scores := Jra.score_group prob [ i; j ] :: !all_scores
      done
    done;
    let expected =
      List.sort (fun a b -> compare b a) !all_scores
      |> List.filteri (fun i _ -> i < k)
    in
    List.iter2
      (fun e sol -> Alcotest.(check (float 1e-9)) "top-k score" e sol.Jra.score)
      expected top
  done

let test_top_k_k1_equals_solve () =
  let rng = Rng.create 13 in
  let prob = random_problem rng ~dim:5 ~n:10 ~dp:3 in
  let s = Jra_bba.solve prob in
  match Jra_bba.top_k prob ~k:1 with
  | [ t ] -> Alcotest.(check (float 1e-12)) "same" s.Jra.score t.Jra.score
  | _ -> Alcotest.fail "expected singleton"

(* {1 ILP and CP solvers} *)

let ilp_matches_bfs =
  QCheck.Test.make ~name:"jra ilp = bfs" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 1 + Rng.int rng 4 in
      let n = 2 + Rng.int rng 5 in
      let dp = 1 + Rng.int rng (min 3 n) in
      let prob = random_problem rng ~dim ~n ~dp in
      let a = Jra_bfs.solve prob in
      match Jra_ilp.solve prob with
      | Jra_ilp.Solved b -> Float.abs (a.Jra.score -. b.Jra.score) < 1e-6
      | Jra_ilp.Timed_out _ -> false)

let cp_matches_bfs =
  QCheck.Test.make ~name:"jra cp = bfs" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 1 + Rng.int rng 4 in
      let n = 2 + Rng.int rng 6 in
      let dp = 1 + Rng.int rng (min 3 n) in
      let prob = random_problem rng ~dim ~n ~dp in
      let a = Jra_bfs.solve prob in
      match fst (Jra_cp.solve prob) with
      | Jra_cp.Solved b -> Float.abs (a.Jra.score -. b.Jra.score) < 1e-9
      | Jra_cp.Timed_out _ -> false)

let test_ilp_respects_exclusions () =
  let paper = [| 1.; 0. |] in
  let pool = [| [| 1.; 0. |]; [| 0.5; 0.5 |]; [| 0.; 1. |] |] in
  let prob = Jra.make ~excluded:[| true; false; false |] ~paper ~pool ~group_size:1 () in
  match Jra_ilp.solve prob with
  | Jra_ilp.Solved sol -> Alcotest.(check (list int)) "skips excluded" [ 1 ] sol.Jra.group
  | _ -> Alcotest.fail "expected Solved"

let test_cp_deadline () =
  let rng = Rng.create 14 in
  let prob = random_problem rng ~dim:4 ~n:30 ~dp:3 in
  match fst (Jra_cp.solve ~deadline:(Timer.deadline (-1.)) prob) with
  | Jra_cp.Timed_out _ -> ()
  | Jra_cp.Solved _ -> Alcotest.fail "expected Timed_out"

(* {1 Compact shortlisted problems}

   [Jra.of_instance ~candidates] under c, cP and cD builds the compact
   problem: the shortlist alone, projected onto the paper's support. The
   oracle is the masked dense problem over the whole committee (the
   pre-compact construction), built here by hand. *)

(* A seeded sparse instance: every vector touches a few random topics,
   and random (paper, reviewer) pairs are conflicts. *)
let sparse_instance ~scoring rng =
  let dim = 6 + Rng.int rng 10 and n_r = 6 + Rng.int rng 9 and n_p = 4 in
  let dp = 1 + Rng.int rng 3 in
  let vec () =
    let v = Array.make dim 0. in
    for _ = 0 to Rng.int rng 3 do
      v.(Rng.int rng dim) <- 0.05 +. Rng.uniform rng
    done;
    v
  in
  let coi =
    (* at most n_r / 2 pairs, so every paper keeps delta_p free reviewers *)
    List.init (Rng.int rng ((n_r / 2) + 1)) (fun _ -> (Rng.int rng n_p, Rng.int rng n_r))
  in
  Instance.create_exn ~scoring ~coi
    ~papers:(Array.init n_p (fun _ -> vec ()))
    ~reviewers:(Array.init n_r (fun _ -> vec ()))
    ~delta_p:dp ~delta_r:(n_p * dp) ()

let masked_dense inst ~k ~paper =
  let n_r = Instance.n_reviewers inst in
  let cands = Instance.candidates inst ~k ~paper in
  Jra.make ~scoring:inst.Instance.scoring
    ~excluded:
      (Array.init n_r (fun r ->
           (not (Array.mem r cands)) || Instance.forbidden inst ~paper ~reviewer:r))
    ~paper:inst.Instance.papers.(paper) ~pool:inst.Instance.reviewers
    ~group_size:inst.Instance.delta_p ()

let compact_matches_dense scoring =
  QCheck.Test.make
    ~name:(Printf.sprintf "compact = masked dense under %s" (Scoring.name scoring))
    ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let inst = sparse_instance ~scoring rng in
      let n_r = Instance.n_reviewers inst and dp = inst.Instance.delta_p in
      let k = 1 + Rng.int rng (n_r - 1) and paper = Rng.int rng (Instance.n_papers inst) in
      let prob = Jra.of_instance ~candidates:k inst ~paper in
      let cands = Instance.candidates inst ~k ~paper in
      if Array.length cands < dp then begin
        (* Too short a shortlist: the dense pool with COI exclusions. *)
        if prob.Jra.ids <> None || Array.length prob.Jra.pool <> n_r then
          QCheck.Test.fail_report "short shortlist left the dense path";
        true
      end
      else begin
        let supp = Instance.paper_support inst paper in
        if
          prob.Jra.ids <> Some cands || prob.Jra.excluded <> None
          || Array.length prob.Jra.paper <> Array.length supp.Topic_vector.idx
        then QCheck.Test.fail_report "not the compact shortlist problem";
        let bba = Jra_bba.solve prob and bfs = Jra_bfs.solve prob in
        let ilp =
          match Jra_ilp.solve prob with
          | Jra_ilp.Solved s -> s
          | Jra_ilp.Timed_out _ -> QCheck.Test.fail_report "unbudgeted ILP timed out"
        in
        let oracle = Jra_bba.solve (masked_dense inst ~k ~paper) in
        List.iter
          (fun (name, (sol : Jra.solution)) ->
            if Float.abs (sol.score -. oracle.Jra.score) > 1e-9 then
              QCheck.Test.fail_reportf "%s scores %.17g, masked dense BBA %.17g" name
                sol.score oracle.Jra.score;
            if sol.group <> List.sort_uniq compare sol.group then
              QCheck.Test.fail_reportf "%s group not ascending" name;
            if List.length sol.group <> dp then
              QCheck.Test.fail_reportf "%s group has the wrong size" name;
            List.iter
              (fun r ->
                if not (Array.mem r cands) then
                  QCheck.Test.fail_reportf "%s picked %d outside the shortlist" name r;
                if Instance.forbidden inst ~paper ~reviewer:r then
                  QCheck.Test.fail_reportf "%s picked conflicted reviewer %d" name r)
              sol.group)
          [ ("BBA", bba); ("BFS", bfs); ("ILP", ilp) ];
        true
      end)

(* cR credits expertise off the paper's support, so its shortlist masks
   the dense pool instead. *)
let test_cr_stays_dense () =
  let rng = Rng.create 21 in
  for _ = 1 to 20 do
    let inst = sparse_instance ~scoring:Scoring.Reviewer_coverage rng in
    let n_r = Instance.n_reviewers inst in
    let prob = Jra.of_instance ~candidates:(n_r - 1) inst ~paper:0 in
    Alcotest.(check bool) "no id map" true (prob.Jra.ids = None);
    Alcotest.(check int) "whole committee" n_r (Array.length prob.Jra.pool);
    Alcotest.(check int) "every topic" (Instance.n_topics inst)
      (Array.length prob.Jra.paper)
  done

(* {1 The Solver.jra chain: BBA -> greedy} *)

let chain_problems rng =
  List.concat_map
    (fun scoring ->
      let inst = sparse_instance ~scoring rng in
      let k = 1 + Rng.int rng (Instance.n_reviewers inst - 1) in
      List.init (Instance.n_papers inst) (fun paper -> Jra.of_instance ~candidates:k inst ~paper))
    Scoring.all
  @ List.init 4 (fun _ -> random_problem rng ~dim:5 ~n:12 ~dp:3)
  |> Array.of_list

let links out =
  List.filter_map
    (function
      | Solver.Timeout { link } | Solver.Fault { link; _ } -> Some link
      | Solver.Stale_checkpoint _ -> None)
    (Solver.reasons out)

let test_chain_unbudgeted () =
  let problems = chain_problems (Rng.create 31) in
  Array.iter
    (fun prob ->
      match Solver.jra prob with
      | Solver.Complete sol ->
          Alcotest.(check (float 0.)) "the chain is BBA" (Jra_bba.solve prob).Jra.score
            sol.Jra.score
      | o -> Alcotest.failf "unbudgeted chain %s" (Solver.status o))
    problems

let test_chain_expired () =
  let problems = chain_problems (Rng.create 32) in
  Array.iter
    (fun prob ->
      let ctx = Ctx.make ~deadline:(Timer.deadline (-1.)) () in
      match Solver.jra ~ctx prob with
      | Solver.Degraded (sol, [ Solver.Timeout { link = "jra-bba" } ]) ->
          let greedy = Jra.greedy prob in
          Alcotest.(check (list int)) "greedy group" greedy.Jra.group sol.Jra.group;
          Alcotest.(check (float 0.)) "greedy score" greedy.Jra.score sol.Jra.score
      | o ->
          Alcotest.failf "expired deadline: %s [%s]" (Solver.status o)
            (String.concat "; " (links o)))
    problems

let chain_never_names_ilp =
  QCheck.Test.make ~name:"no outcome names a jra-ilp link" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let problems = chain_problems rng in
      let budget = [| None; Some (-1.); Some 0.; Some 1e-4; Some 10. |] in
      Array.for_all
        (fun prob ->
          let deadline = Option.map Timer.deadline budget.(Rng.int rng (Array.length budget)) in
          not (List.mem "jra-ilp" (links (Solver.jra ~ctx:(Ctx.make ?deadline ()) prob))))
        problems)

let () =
  Alcotest.run "jra"
    [
      ( "problem",
        [
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "of_instance coi" `Quick test_of_instance_carries_coi;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "trivial" `Quick test_bfs_trivial;
          Alcotest.test_case "combination count" `Quick test_bfs_counts_combinations;
          Alcotest.test_case "whole pool" `Quick test_bfs_whole_pool;
        ] );
      ( "bba",
        [
          Alcotest.test_case "respects exclusions" `Quick test_bba_respects_exclusions;
          Alcotest.test_case "group sorted distinct" `Quick test_bba_group_sorted_distinct;
          Alcotest.test_case "score consistent" `Quick test_bba_score_consistent;
          Alcotest.test_case "pruning helps" `Quick test_bba_pruning_helps;
          QCheck_alcotest.to_alcotest bba_nobound_matches_bfs;
        ]
        @ List.map (fun k -> QCheck_alcotest.to_alcotest (bba_matches_bfs k)) Scoring.all
      );
      ( "top_k",
        [
          Alcotest.test_case "ordering and exactness" `Quick test_top_k_ordering_and_exactness;
          Alcotest.test_case "k=1 equals solve" `Quick test_top_k_k1_equals_solve;
        ] );
      ( "ilp_cp",
        [
          Alcotest.test_case "ilp respects exclusions" `Quick test_ilp_respects_exclusions;
          Alcotest.test_case "cp deadline" `Quick test_cp_deadline;
          QCheck_alcotest.to_alcotest ilp_matches_bfs;
          QCheck_alcotest.to_alcotest cp_matches_bfs;
        ] );
      ( "compact",
        Alcotest.test_case "cR stays dense" `Quick test_cr_stays_dense
        :: List.map
             (fun k -> QCheck_alcotest.to_alcotest (compact_matches_dense k))
             Scoring.[ Weighted_coverage; Paper_coverage; Dot_product ] );
      ( "chain",
        [
          Alcotest.test_case "unbudgeted is BBA" `Quick test_chain_unbudgeted;
          Alcotest.test_case "expired deadline gives greedy" `Quick test_chain_expired;
          QCheck_alcotest.to_alcotest chain_never_names_ilp;
        ] );
    ]
