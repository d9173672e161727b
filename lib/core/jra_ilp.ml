module Timer = Wgrap_util.Timer

type outcome =
  | Solved of Jra.solution
  | Timed_out of Jra.solution option

let solve ?deadline (t : Jra.problem) =
  let selectable r =
    match t.excluded with None -> true | Some mask -> not mask.(r)
  in
  let pool_ids =
    List.filter selectable (List.init (Array.length t.pool) Fun.id)
    |> Array.of_list
  in
  let n = Array.length pool_ids in
  (* Topics the paper does not touch contribute nothing under weighted /
     paper coverage and dot-product; Reviewer_coverage credits expertise
     on them, so they must be kept in that case. *)
  let topics =
    List.filter
      (fun topic ->
        t.paper.(topic) > 0. || t.scoring = Scoring.Reviewer_coverage)
      (List.init (Array.length t.paper) Fun.id)
    |> Array.of_list
  in
  let nt = Array.length topics in
  let mass = Topic_vector.mass t.paper in
  let n_vars = n + (n * nt) in
  let x_var r = r in
  let u_var r ti = n + (r * nt) + ti in
  let objective = Array.make n_vars 0. in
  Array.iteri
    (fun ti topic ->
      for r = 0 to n - 1 do
        let rv = t.pool.(pool_ids.(r)).(topic) in
        let f = Scoring.contribution t.scoring rv t.paper.(topic) in
        if mass > 0. then objective.(u_var r ti) <- f /. mass
      done)
    topics;
  let constraints = ref [] in
  (* sum_r x_r = delta_p *)
  let row = Array.make n_vars 0. in
  for r = 0 to n - 1 do
    row.(x_var r) <- 1.
  done;
  constraints := (row, Milp.Lp.Eq, float_of_int t.group_size) :: !constraints;
  (* u_{r,t} <= x_r *)
  for r = 0 to n - 1 do
    for ti = 0 to nt - 1 do
      let row = Array.make n_vars 0. in
      row.(u_var r ti) <- 1.;
      row.(x_var r) <- -1.;
      constraints := (row, Milp.Lp.Le, 0.) :: !constraints
    done
  done;
  (* sum_r u_{r,t} <= 1 *)
  for ti = 0 to nt - 1 do
    let row = Array.make n_vars 0. in
    for r = 0 to n - 1 do
      row.(u_var r ti) <- 1.
    done;
    constraints := (row, Milp.Lp.Le, 1.) :: !constraints
  done;
  let program =
    {
      Milp.Ilp.lp = { Milp.Lp.objective; constraints = List.rev !constraints };
      binary = List.init n x_var;
    }
  in
  let decode (sol : Milp.Lp.solution) =
    let group = ref [] in
    for r = n - 1 downto 0 do
      if sol.Milp.Lp.x.(x_var r) > 0.5 then group := pool_ids.(r) :: !group
    done;
    (* Score the decoded group directly: immune to LP round-off. *)
    Jra.solution t !group (Jra.score_group t !group)
  in
  match Milp.Ilp.solve ?deadline program with
  | Milp.Ilp.Optimal sol -> Solved (decode sol)
  | Milp.Ilp.Timed_out best -> Timed_out (Option.map decode best)
  | Milp.Ilp.Infeasible | Milp.Ilp.Unbounded ->
      (* Cannot happen: the encoding is always feasible and bounded. *)
      assert false
