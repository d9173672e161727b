module Timer = Wgrap_util.Timer

let model ?(all_different = true) ?(symmetry_break = true) arity domain =
  { Cpsolve.arity; domain; all_different; symmetry_break }

let test_single_var () =
  let score a = float_of_int a.(0) in
  match fst (Cpsolve.maximize (model 1 5) ~score) with
  | Cpsolve.Optimal (a, v) ->
      Alcotest.(check int) "picks max" 4 a.(0);
      Alcotest.(check (float 1e-9)) "value" 4. v
  | _ -> Alcotest.fail "expected Optimal"

let test_all_different () =
  (* Two vars, domain 2, maximize sum: must use both values. *)
  let score a = float_of_int (a.(0) + a.(1)) in
  match fst (Cpsolve.maximize (model 2 2) ~score) with
  | Cpsolve.Optimal (a, v) ->
      Alcotest.(check (float 1e-9)) "0 + 1" 1. v;
      Alcotest.(check bool) "distinct" true (a.(0) <> a.(1))
  | _ -> Alcotest.fail "expected Optimal"

let test_symmetry_break_counts () =
  (* With strictly-increasing assignments the search sees each subset
     once: C(4,2)=6 leaves; without it, 12 ordered pairs. *)
  let count = ref 0 in
  let score _ = incr count; 0. in
  ignore (Cpsolve.maximize (model 2 4) ~score);
  let with_sb = !count in
  count := 0;
  ignore (Cpsolve.maximize (model ~symmetry_break:false 2 4) ~score);
  Alcotest.(check int) "subsets" 6 with_sb;
  Alcotest.(check int) "ordered pairs" 12 !count

let test_bound_prunes () =
  (* A zero bound after the first leaf prunes everything else. *)
  let leaves = ref 0 in
  let score _ = incr leaves; 1. in
  let bound _ depth = if depth = 0 then infinity else 0. in
  (match fst (Cpsolve.maximize ~bound (model 2 6) ~score) with
  | Cpsolve.Optimal (_, v) -> Alcotest.(check (float 1e-9)) "value" 1. v
  | _ -> Alcotest.fail "expected Optimal");
  Alcotest.(check bool) "pruned most leaves" true (!leaves < 15)

let test_deadline () =
  let d = Timer.deadline (-1.) in
  let score _ = 0. in
  match fst (Cpsolve.maximize ~deadline:d (model 3 10) ~score) with
  | Cpsolve.Timed_out _ -> ()
  | _ -> Alcotest.fail "expected Timed_out"

let test_stats_recorded () =
  let _, s = Cpsolve.maximize (model 2 3) ~score:(fun _ -> 0.) in
  Alcotest.(check bool) "nodes counted" true (s.Cpsolve.nodes > 0);
  Alcotest.(check bool) "first solution seen" true
    (s.Cpsolve.first_solution_time <> None)

let test_invalid_model () =
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Cpsolve.maximize: arity and domain must be positive")
    (fun () -> ignore (Cpsolve.maximize (model 0 3) ~score:(fun _ -> 0.)))

let cp_matches_exhaustive =
  QCheck.Test.make ~name:"cp finds the best subset" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Wgrap_util.Rng.create seed in
      let n = 3 + Wgrap_util.Rng.int rng 4 in
      let k = 1 + Wgrap_util.Rng.int rng 2 in
      let weights = Array.init n (fun _ -> Wgrap_util.Rng.uniform rng) in
      let score a =
        Array.fold_left (fun acc i -> acc +. weights.(i)) 0. a
      in
      (* Exhaustive best k-subset sum = top-k weights. *)
      let sorted = Array.copy weights in
      Array.sort (fun a b -> compare b a) sorted;
      let best = ref 0. in
      for i = 0 to k - 1 do
        best := !best +. sorted.(i)
      done;
      match fst (Cpsolve.maximize (model k n) ~score) with
      | Cpsolve.Optimal (_, v) -> Float.abs (v -. !best) < 1e-9
      | _ -> false)

let () =
  Alcotest.run "cpsolve"
    [
      ( "search",
        [
          Alcotest.test_case "single var" `Quick test_single_var;
          Alcotest.test_case "all different" `Quick test_all_different;
          Alcotest.test_case "symmetry breaking" `Quick test_symmetry_break_counts;
          Alcotest.test_case "bound prunes" `Quick test_bound_prunes;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "stats" `Quick test_stats_recorded;
          Alcotest.test_case "invalid model" `Quick test_invalid_model;
          QCheck_alcotest.to_alcotest cp_matches_exhaustive;
        ] );
    ]
