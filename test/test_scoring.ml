module Rng = Wgrap_util.Rng
open Wgrap

let check_float = Alcotest.(check (float 1e-9))

let random_vec rng dim = Array.init dim (fun _ -> Rng.uniform rng)

(* {1 Topic_vector} *)

let test_validate () =
  Alcotest.(check bool) "ok" true (Result.is_ok (Topic_vector.validate [| 0.; 1. |]));
  Alcotest.(check bool) "negative" true
    (Result.is_error (Topic_vector.validate [| -0.1 |]));
  Alcotest.(check bool) "empty" true (Result.is_error (Topic_vector.validate [||]));
  Alcotest.(check bool) "nan" true
    (Result.is_error (Topic_vector.validate [| Float.nan |]))

let test_normalize_and_mass () =
  let v = Topic_vector.normalize [| 1.; 3. |] in
  Alcotest.(check (array (float 1e-12))) "normalize" [| 0.25; 0.75 |] v;
  check_float "mass" 4. (Topic_vector.mass [| 1.; 3. |])

let test_group_max () =
  let g = Topic_vector.group_max [ [| 0.1; 0.9 |]; [| 0.5; 0.2 |] ] in
  Alcotest.(check (array (float 1e-12))) "coordinatewise max" [| 0.5; 0.9 |] g

let test_group_max_empty () =
  Alcotest.check_raises "empty group"
    (Invalid_argument "Topic_vector.group_max: empty group") (fun () ->
      ignore (Topic_vector.group_max []))

let test_extend_max_matches_group_max () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let a = random_vec rng 6 and b = random_vec rng 6 in
    Alcotest.(check (array (float 1e-12)))
      "extend = group" (Topic_vector.group_max [ a; b ])
      (Topic_vector.extend_max a b)
  done

let test_top_topics () =
  Alcotest.(check (list int)) "order" [ 2; 0 ]
    (Topic_vector.top_topics [| 0.3; 0.1; 0.6 |] 2);
  Alcotest.(check (list int)) "ties break low index" [ 0; 1 ]
    (Topic_vector.top_topics [| 0.5; 0.5 |] 2);
  Alcotest.(check (list int)) "k larger than dim" [ 1; 0 ]
    (Topic_vector.top_topics [| 0.1; 0.2 |] 10)

(* {1 Scoring: the paper's worked examples} *)

(* Figure 3(a) / Definition 1 example vectors (Section 3's running
   example, Figure 5a): p = (0.35, 0.45, 0.2). *)
let fig5_p = [| 0.35; 0.45; 0.2 |]
let fig5_r1 = [| 0.15; 0.75; 0.1 |]
let fig5_r2 = [| 0.75; 0.15; 0.1 |]
let fig5_r3 = [| 0.1; 0.35; 0.55 |]

let test_fig5_gains () =
  (* The paper reports c(r1,p)=0.7, c(r2,p)=0.6(=gain of r2 at root),
     c(r3,p)=0.65. *)
  check_float "c(r1,p)" 0.7 (Scoring.score Weighted_coverage fig5_r1 fig5_p);
  check_float "c(r2,p)" 0.6 (Scoring.score Weighted_coverage fig5_r2 fig5_p);
  check_float "c(r3,p)" 0.65 (Scoring.score Weighted_coverage fig5_r3 fig5_p)

(* Table 6: the four scoring functions on the toy example. *)
let t6_p = [| 0.6; 0.4 |]
let t6_r1 = [| 0.9; 0.1 |]
let t6_r2 = [| 0.5; 0.5 |]

let test_table6 () =
  check_float "cR r1" 0.9 (Scoring.score Reviewer_coverage t6_r1 t6_p);
  check_float "cR r2" 0.5 (Scoring.score Reviewer_coverage t6_r2 t6_p);
  check_float "cP r1" 0.6 (Scoring.score Paper_coverage t6_r1 t6_p);
  check_float "cP r2" 0.4 (Scoring.score Paper_coverage t6_r2 t6_p);
  check_float "cD r1" 0.58 (Scoring.score Dot_product t6_r1 t6_p);
  check_float "cD r2" 0.5 (Scoring.score Dot_product t6_r2 t6_p);
  check_float "c r1" 0.7 (Scoring.score Weighted_coverage t6_r1 t6_p);
  check_float "c r2" 0.9 (Scoring.score Weighted_coverage t6_r2 t6_p)

let test_weighted_coverage_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let p = random_vec rng 8 and r = random_vec rng 8 in
    let s = Scoring.score Weighted_coverage r p in
    Alcotest.(check bool) "in [0,1]" true (s >= 0. && s <= 1. +. 1e-12)
  done

let test_perfect_coverage () =
  let p = [| 0.5; 0.5 |] in
  check_float "self coverage" 1. (Scoring.score Weighted_coverage p p);
  check_float "dominating reviewer" 1.
    (Scoring.score Weighted_coverage [| 0.9; 0.9 |] p)

let test_empty_group_scores_zero () =
  let p = [| 0.3; 0.7 |] in
  List.iter
    (fun kind ->
      check_float (Scoring.name kind) 0.
        (Scoring.score kind (Scoring.empty_group ~dim:2) p))
    Scoring.all

let test_zero_mass_paper () =
  List.iter
    (fun kind ->
      check_float "zero paper" 0. (Scoring.score kind [| 0.5 |] [| 0. |]))
    Scoring.all

let test_gain_matches_difference () =
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    let p = random_vec rng 6 in
    let g = random_vec rng 6 and r = random_vec rng 6 in
    List.iter
      (fun kind ->
        let direct =
          Scoring.score kind (Topic_vector.extend_max g r) p
          -. Scoring.score kind g p
        in
        Alcotest.(check (float 1e-9)) "gain" direct (Scoring.gain kind ~group:g r p))
      Scoring.all
  done

(* Lemma 4's conditions, checked as QCheck properties. *)

let vec_gen dim =
  QCheck.Gen.(array_size (return dim) (float_bound_inclusive 1.))

let triple_gen =
  QCheck.Gen.(
    let* p = vec_gen 6 in
    let* a = vec_gen 6 in
    let* b = vec_gen 6 in
    return (p, a, b))

let monotone_in_reviewer kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s monotone in reviewer" (Scoring.name kind))
    ~count:200
    (QCheck.make triple_gen)
    (fun (p, a, b) ->
      (* Score of the pointwise max dominates both. *)
      let m = Topic_vector.extend_max a b in
      Scoring.score kind m p >= Scoring.score kind a p -. 1e-12
      && Scoring.score kind m p >= Scoring.score kind b p -. 1e-12)

let submodular_gains kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s gains shrink as the group grows" (Scoring.name kind))
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* p = vec_gen 5 in
         let* g = vec_gen 5 in
         let* extra = vec_gen 5 in
         let* r = vec_gen 5 in
         return (p, g, extra, r)))
    (fun (p, g, extra, r) ->
      (* gain(g, r) >= gain(g ∪ extra, r): submodularity of c. *)
      let bigger = Topic_vector.extend_max g extra in
      Scoring.gain kind ~group:g r p
      >= Scoring.gain kind ~group:bigger r p -. 1e-12)

(* {1 Instance / Assignment} *)

let small_instance ?coi ?(scoring = Scoring.Weighted_coverage) () =
  Instance.create_exn ?coi ~scoring
    ~papers:[| [| 0.5; 0.5 |]; [| 1.0; 0. |] |]
    ~reviewers:[| [| 1.; 0. |]; [| 0.; 1. |]; [| 0.5; 0.5 |] |]
    ~delta_p:2 ~delta_r:2 ()

let test_instance_validation () =
  let bad ?coi ~delta_p ~delta_r () =
    Instance.create ?coi
      ~papers:[| [| 0.5 |] |]
      ~reviewers:[| [| 1. |] |]
      ~delta_p ~delta_r ()
  in
  Alcotest.(check bool) "delta_p > R" true (Result.is_error (bad ~delta_p:2 ~delta_r:2 ()));
  Alcotest.(check bool) "delta_r < 1" true (Result.is_error (bad ~delta_p:1 ~delta_r:0 ()));
  Alcotest.(check bool) "capacity" true
    (Result.is_error
       (Instance.create
          ~papers:[| [| 1. |]; [| 1. |]; [| 1. |] |]
          ~reviewers:[| [| 1. |] |]
          ~delta_p:1 ~delta_r:2 ()));
  Alcotest.(check bool) "coi out of range" true
    (Result.is_error (bad ~coi:[ (0, 5) ] ~delta_p:1 ~delta_r:1 ()));
  Alcotest.(check bool) "dimension mismatch" true
    (Result.is_error
       (Instance.create
          ~papers:[| [| 1.; 0. |] |]
          ~reviewers:[| [| 1. |] |]
          ~delta_p:1 ~delta_r:1 ()))

let test_min_workload () =
  Alcotest.(check int) "617*3/105" 18
    (Instance.min_workload ~papers:617 ~reviewers:105 ~delta_p:3);
  Alcotest.(check int) "exact division" 2
    (Instance.min_workload ~papers:10 ~reviewers:5 ~delta_p:1)

let test_stage_capacity () =
  let inst = small_instance () in
  Alcotest.(check int) "ceil(2/2)" 1 (Instance.stage_capacity inst)

let test_score_matrix_coi () =
  let inst = small_instance ~coi:[ (0, 1) ] () in
  let m = Instance.score_matrix inst in
  Alcotest.(check bool) "coi cell" true (m.(0).(1) = Lap.Hungarian.forbidden);
  Alcotest.(check bool) "other cells finite" true (m.(0).(0) > 0.)

(* Conflicts are stored per paper: one conflict on a 5000 x 1000
   instance must not cost a P x R table (about 40 MB as a dense bool
   matrix). *)
let test_one_conflict_allocation () =
  let n_p = 5000 and n_r = 1000 in
  let papers = Array.init n_p (fun p -> [| 1.; float_of_int (p mod 7) |]) in
  let reviewers = Array.init n_r (fun r -> [| float_of_int (r mod 5); 1. |]) in
  let build coi =
    let before = Gc.allocated_bytes () in
    ignore
      (Instance.create_exn ~coi ~papers ~reviewers ~delta_p:1 ~delta_r:5 ());
    Gc.allocated_bytes () -. before
  in
  let plain = build [] in
  let one = build [ (4321, 999) ] in
  Alcotest.(check bool)
    (Printf.sprintf "one conflict adds %.0f bytes" (one -. plain))
    true
    (one -. plain < 1e6)

(* [forbidden], [conflicts] and [coi_pairs] against the input pair list
   itself, on lists with duplicates. *)
let conflicts_match_pair_list =
  QCheck.Test.make ~name:"conflicts = pair-list oracle" ~count:200
    QCheck.(
      triple (int_range 1 8) (int_range 1 8)
        (list_of_size Gen.(0 -- 20) (pair (int_range 0 63) (int_range 0 63))))
    (fun (n_p, n_r, raw) ->
      let pairs = List.map (fun (p, r) -> (p mod n_p, r mod n_r)) raw in
      let coi = pairs @ List.filteri (fun i _ -> i mod 2 = 0) pairs in
      let inst =
        Instance.create_exn ~coi
          ~papers:(Array.make n_p [| 1. |])
          ~reviewers:(Array.make n_r [| 1. |])
          ~delta_p:1 ~delta_r:n_p ()
      in
      let conflicted p r = List.mem (p, r) coi in
      let papers = List.init n_p Fun.id and reviewers = List.init n_r Fun.id in
      Instance.coi_pairs inst
      = List.concat_map
          (fun p ->
            List.filter_map
              (fun r -> if conflicted p r then Some (p, r) else None)
              reviewers)
          papers
      && List.for_all
           (fun p ->
             Instance.conflicts inst ~paper:p
             = Array.of_list (List.filter (conflicted p) reviewers)
             && List.for_all
                  (fun r -> Instance.forbidden inst ~paper:p ~reviewer:r = conflicted p r)
                  reviewers)
           papers)

let test_assignment_roundtrip () =
  let a = Assignment.of_pairs ~n_papers:2 [ (0, 0); (1, 0); (2, 1) ] in
  Alcotest.(check int) "size" 3 (Assignment.size a);
  Alcotest.(check (list (pair int int))) "pairs (order within a paper unspecified)"
    [ (0, 0); (1, 0); (2, 1) ]
    (List.sort compare (Assignment.pairs a));
  Alcotest.(check (array int)) "workloads" [| 1; 1; 1 |]
    (Assignment.workloads a ~n_reviewers:3)

let test_assignment_validate () =
  let inst = small_instance () in
  let good = Assignment.of_pairs ~n_papers:2 [ (0, 0); (1, 0); (0, 1); (2, 1) ] in
  Alcotest.(check bool) "feasible" true (Assignment.is_feasible inst good);
  let wrong_size = Assignment.of_pairs ~n_papers:2 [ (0, 0); (0, 1); (1, 1) ] in
  Alcotest.(check bool) "group size" false (Assignment.is_feasible inst wrong_size);
  let dup = Assignment.of_pairs ~n_papers:2 [ (0, 0); (0, 0); (1, 1); (2, 1) ] in
  Alcotest.(check bool) "duplicate reviewer" false (Assignment.is_feasible inst dup);
  let overload =
    Assignment.of_pairs ~n_papers:2 [ (0, 0); (1, 0); (0, 1); (1, 1) ]
  in
  (* reviewers 0 and 1 both at workload 2 = delta_r: still fine *)
  Alcotest.(check bool) "at workload cap" true (Assignment.is_feasible inst overload)

let test_assignment_validate_coi () =
  let inst = small_instance ~coi:[ (0, 2) ] () in
  let uses_coi = Assignment.of_pairs ~n_papers:2 [ (2, 0); (1, 0); (0, 1); (1, 1) ] in
  Alcotest.(check bool) "coi rejected" false (Assignment.is_feasible inst uses_coi)

let test_assignment_coverage () =
  let inst = small_instance () in
  let a = Assignment.of_pairs ~n_papers:2 [ (0, 0); (1, 0); (0, 1); (2, 1) ] in
  (* paper 0: group {r0, r1} -> vector (1,1) covers (0.5,0.5) fully = 1.
     paper 1: group {r0, r2} -> (1, 0.5) vs (1,0): min(1,1)+min(0.5,0)=1 -> 1. *)
  check_float "coverage" 2. (Assignment.coverage inst a);
  check_float "paper 0" 1. (Assignment.paper_score inst a 0)

let () =
  Alcotest.run "scoring"
    [
      ( "topic_vector",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "normalize/mass" `Quick test_normalize_and_mass;
          Alcotest.test_case "group max" `Quick test_group_max;
          Alcotest.test_case "group max empty" `Quick test_group_max_empty;
          Alcotest.test_case "extend = group" `Quick test_extend_max_matches_group_max;
          Alcotest.test_case "top topics" `Quick test_top_topics;
        ] );
      ( "scoring",
        [
          Alcotest.test_case "figure 5 gains" `Quick test_fig5_gains;
          Alcotest.test_case "table 6" `Quick test_table6;
          Alcotest.test_case "bounds" `Quick test_weighted_coverage_bounds;
          Alcotest.test_case "perfect coverage" `Quick test_perfect_coverage;
          Alcotest.test_case "empty group" `Quick test_empty_group_scores_zero;
          Alcotest.test_case "zero mass paper" `Quick test_zero_mass_paper;
          Alcotest.test_case "gain = difference" `Quick test_gain_matches_difference;
        ]
        @ List.map (fun k -> QCheck_alcotest.to_alcotest (monotone_in_reviewer k)) Scoring.all
        @ List.map (fun k -> QCheck_alcotest.to_alcotest (submodular_gains k)) Scoring.all
      );
      ( "instance",
        [
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "min workload" `Quick test_min_workload;
          Alcotest.test_case "stage capacity" `Quick test_stage_capacity;
          Alcotest.test_case "coi in score matrix" `Quick test_score_matrix_coi;
          Alcotest.test_case "one conflict allocates no P x R table" `Quick
            test_one_conflict_allocation;
          QCheck_alcotest.to_alcotest conflicts_match_pair_list;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "roundtrip" `Quick test_assignment_roundtrip;
          Alcotest.test_case "validate" `Quick test_assignment_validate;
          Alcotest.test_case "validate coi" `Quick test_assignment_validate_coi;
          Alcotest.test_case "coverage" `Quick test_assignment_coverage;
        ] );
    ]
