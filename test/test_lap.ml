module Rng = Wgrap_util.Rng
module Hungarian = Lap.Hungarian
module Mcmf = Lap.Mcmf

(* Exhaustive optimum of a small assignment instance (n rows <= m cols). *)
let brute_force_max score =
  let n = Array.length score and m = Array.length score.(0) in
  let best = ref neg_infinity in
  let used = Array.make m false in
  let rec go i acc =
    if i = n then best := Float.max !best acc
    else
      for j = 0 to m - 1 do
        if not used.(j) then begin
          used.(j) <- true;
          go (i + 1) (acc +. score.(i).(j));
          used.(j) <- false
        end
      done
  in
  go 0 0.;
  !best

let random_matrix rng n m =
  Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 10.))

let test_hungarian_known () =
  (* Classic 3x3: optimal assignment is the anti-diagonal. *)
  let cost = [| [| 4.; 1.; 3. |]; [| 2.; 0.; 5. |]; [| 3.; 2.; 2. |] |] in
  let assignment, total = Hungarian.minimize cost in
  Alcotest.(check (float 1e-9)) "optimal cost" 5. total;
  let seen = Array.make 3 false in
  Array.iter (fun j -> seen.(j) <- true) assignment;
  Alcotest.(check bool) "all columns distinct" true (Array.for_all Fun.id seen)

let test_hungarian_rectangular () =
  let score = [| [| 1.; 9.; 2. |]; [| 8.; 1.; 1. |] |] in
  let assignment, total = Hungarian.maximize score in
  Alcotest.(check (float 1e-9)) "max score" 17. total;
  Alcotest.(check (array int)) "picks" [| 1; 0 |] assignment

let test_hungarian_single_cell () =
  let assignment, total = Hungarian.maximize [| [| 3.5 |] |] in
  Alcotest.(check (float 1e-9)) "total" 3.5 total;
  Alcotest.(check (array int)) "assignment" [| 0 |] assignment

let test_hungarian_rejects_wide_rows () =
  Alcotest.check_raises "rows > cols"
    (Invalid_argument "Hungarian: more rows than columns") (fun () ->
      ignore (Hungarian.minimize [| [| 1. |]; [| 2. |] |]))

let test_hungarian_rejects_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Hungarian: ragged matrix")
    (fun () -> ignore (Hungarian.minimize [| [| 1.; 2. |]; [| 3. |] |]))

let test_hungarian_forbidden_avoided () =
  let f = Hungarian.forbidden in
  let score = [| [| f; 5. |]; [| 4.; f |] |] in
  let assignment, total = Hungarian.maximize score in
  Alcotest.(check (float 1e-9)) "total" 9. total;
  Alcotest.(check (array int)) "assignment" [| 1; 0 |] assignment

let test_hungarian_infeasible_forbidden () =
  let f = Hungarian.forbidden in
  let score = [| [| f; f |]; [| 4.; 1. |] |] in
  Alcotest.check_raises "infeasible" (Failure "Hungarian: infeasible")
    (fun () -> ignore (Hungarian.maximize score))

let hungarian_matches_brute_force =
  QCheck.Test.make ~name:"hungarian = brute force on random instances"
    ~count:150
    QCheck.(pair (int_range 1 5) (int_range 0 3))
    (fun (n, extra) ->
      let rng = Rng.create ((n * 131) + extra) in
      let m = n + extra in
      let score = random_matrix rng n m in
      let _, total = Hungarian.maximize score in
      Float.abs (total -. brute_force_max score) < 1e-9)

let test_mcmf_simple_path () =
  let g = Mcmf.create 3 in
  Mcmf.add_edge g ~src:0 ~dst:1 ~cap:2 ~cost:1.;
  Mcmf.add_edge g ~src:1 ~dst:2 ~cap:2 ~cost:1.;
  let flow, cost = Mcmf.min_cost_flow g ~source:0 ~sink:2 in
  Alcotest.(check int) "flow" 2 flow;
  Alcotest.(check (float 1e-9)) "cost" 4. cost

let test_mcmf_prefers_cheap_path () =
  let g = Mcmf.create 4 in
  Mcmf.add_edge g ~src:0 ~dst:1 ~cap:1 ~cost:1.;
  Mcmf.add_edge g ~src:0 ~dst:2 ~cap:1 ~cost:5.;
  Mcmf.add_edge g ~src:1 ~dst:3 ~cap:1 ~cost:1.;
  Mcmf.add_edge g ~src:2 ~dst:3 ~cap:1 ~cost:5.;
  let flow, cost = Mcmf.min_cost_flow g ~source:0 ~sink:3 in
  Alcotest.(check int) "flow" 2 flow;
  Alcotest.(check (float 1e-9)) "cost = 2 + 10" 12. cost

let test_mcmf_negative_costs () =
  (* A negative-cost detour must be taken. *)
  let g = Mcmf.create 4 in
  Mcmf.add_edge g ~src:0 ~dst:1 ~cap:1 ~cost:0.;
  Mcmf.add_edge g ~src:1 ~dst:3 ~cap:1 ~cost:0.;
  Mcmf.add_edge g ~src:1 ~dst:2 ~cap:1 ~cost:(-5.);
  Mcmf.add_edge g ~src:2 ~dst:3 ~cap:1 ~cost:1.;
  let flow, cost = Mcmf.min_cost_flow g ~source:0 ~sink:3 in
  Alcotest.(check int) "flow" 1 flow;
  Alcotest.(check (float 1e-9)) "cost" (-4.) cost

let test_mcmf_edge_flows () =
  let g = Mcmf.create 3 in
  Mcmf.add_edge g ~src:0 ~dst:1 ~cap:3 ~cost:1.;
  Mcmf.add_edge g ~src:1 ~dst:2 ~cap:2 ~cost:1.;
  ignore (Mcmf.min_cost_flow g ~source:0 ~sink:2);
  let flows = Mcmf.edge_flows g in
  Alcotest.(check (list (triple int int int))) "flows"
    [ (0, 1, 2); (1, 2, 2) ] flows

let test_mcmf_disconnected () =
  let g = Mcmf.create 4 in
  Mcmf.add_edge g ~src:0 ~dst:1 ~cap:1 ~cost:1.;
  let flow, cost = Mcmf.min_cost_flow g ~source:0 ~sink:3 in
  Alcotest.(check int) "no flow" 0 flow;
  Alcotest.(check (float 1e-9)) "no cost" 0. cost

let test_transportation_square () =
  let score = [| [| 5.; 1. |]; [| 1.; 5. |] |] in
  let result =
    Mcmf.transportation ~row_supply:[| 1; 1 |] ~col_capacity:[| 1; 1 |] score
  in
  Alcotest.(check (list int)) "row 0" [ 0 ] result.(0);
  Alcotest.(check (list int)) "row 1" [ 1 ] result.(1)

let test_transportation_capacitated () =
  (* Both rows want column 0 but it only holds one unit. *)
  let score = [| [| 5.; 1. |]; [| 5.; 4. |] |] in
  let result =
    Mcmf.transportation ~row_supply:[| 1; 1 |] ~col_capacity:[| 1; 1 |] score
  in
  Alcotest.(check (list int)) "row 0 pushed off" [ 0 ] result.(0);
  Alcotest.(check (list int)) "row 1 takes its second best" [ 1 ] result.(1)

let test_transportation_multi_supply () =
  let score = [| [| 5.; 4.; 1. |] |] in
  let result =
    Mcmf.transportation ~row_supply:[| 2 |] ~col_capacity:[| 1; 1; 1 |] score
  in
  Alcotest.(check (list int)) "two best columns" [ 0; 1 ] (List.sort compare result.(0))

let test_transportation_forbidden () =
  let f = Hungarian.forbidden in
  let score = [| [| f; 2. |] |] in
  let result =
    Mcmf.transportation ~row_supply:[| 1 |] ~col_capacity:[| 1; 1 |] score
  in
  Alcotest.(check (list int)) "skips forbidden" [ 1 ] result.(0)

let test_transportation_infeasible () =
  Alcotest.check_raises "infeasible" (Failure "Mcmf: infeasible") (fun () ->
      ignore
        (Mcmf.transportation ~row_supply:[| 2 |] ~col_capacity:[| 1 |]
           [| [| 1. |] |]))

let transportation_matches_hungarian =
  QCheck.Test.make
    ~name:"unit-supply transportation = hungarian on random instances"
    ~count:100
    QCheck.(pair (int_range 1 5) (int_range 0 3))
    (fun (n, extra) ->
      let rng = Rng.create ((n * 977) + extra) in
      let m = n + extra in
      let score = random_matrix rng n m in
      let _, hungarian_total = Hungarian.maximize score in
      let groups =
        Mcmf.transportation ~row_supply:(Array.make n 1)
          ~col_capacity:(Array.make m 1) score
      in
      let flow_total = ref 0. in
      Array.iteri
        (fun i cols ->
          List.iter (fun j -> flow_total := !flow_total +. score.(i).(j)) cols)
        groups;
      Float.abs (!flow_total -. hungarian_total) < 1e-9)

let () =
  Alcotest.run "lap"
    [
      ( "hungarian",
        [
          Alcotest.test_case "known 3x3" `Quick test_hungarian_known;
          Alcotest.test_case "rectangular max" `Quick test_hungarian_rectangular;
          Alcotest.test_case "single cell" `Quick test_hungarian_single_cell;
          Alcotest.test_case "rejects wide" `Quick test_hungarian_rejects_wide_rows;
          Alcotest.test_case "rejects ragged" `Quick test_hungarian_rejects_ragged;
          Alcotest.test_case "forbidden avoided" `Quick test_hungarian_forbidden_avoided;
          Alcotest.test_case "forbidden infeasible" `Quick test_hungarian_infeasible_forbidden;
          QCheck_alcotest.to_alcotest hungarian_matches_brute_force;
        ] );
      ( "mcmf",
        [
          Alcotest.test_case "simple path" `Quick test_mcmf_simple_path;
          Alcotest.test_case "prefers cheap path" `Quick test_mcmf_prefers_cheap_path;
          Alcotest.test_case "negative costs" `Quick test_mcmf_negative_costs;
          Alcotest.test_case "edge flows" `Quick test_mcmf_edge_flows;
          Alcotest.test_case "disconnected" `Quick test_mcmf_disconnected;
        ] );
      ( "transportation",
        [
          Alcotest.test_case "square" `Quick test_transportation_square;
          Alcotest.test_case "capacitated" `Quick test_transportation_capacitated;
          Alcotest.test_case "multi supply" `Quick test_transportation_multi_supply;
          Alcotest.test_case "forbidden" `Quick test_transportation_forbidden;
          Alcotest.test_case "infeasible" `Quick test_transportation_infeasible;
          QCheck_alcotest.to_alcotest transportation_matches_hungarian;
        ] );
    ]
