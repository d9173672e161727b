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
  let dim = Array.length t.paper in
  let model =
    {
      Cpsolve.arity = t.group_size;
      domain = n;
      all_different = true;
      symmetry_break = true;
    }
  in
  let group_vec assignment depth =
    let acc = Scoring.empty_group ~dim in
    for i = 0 to depth - 1 do
      Topic_vector.extend_max_into ~dst:acc t.pool.(pool_ids.(assignment.(i)))
    done;
    acc
  in
  let score assignment =
    Scoring.score t.scoring (group_vec assignment t.group_size) t.paper
  in
  (* Generic optimistic bound: current partial score plus, per empty
     slot, the best single-reviewer marginal gain over the whole pool.
     Admissible (gains are submodular) but weak. *)
  let bound assignment depth =
    let g = group_vec assignment depth in
    let base = Scoring.score t.scoring g t.paper in
    let slots = t.group_size - depth in
    if slots = 0 then base
    else begin
      let best_gain = ref 0. in
      for r = 0 to n - 1 do
        let gain = Scoring.gain t.scoring ~group:g t.pool.(pool_ids.(r)) t.paper in
        if gain > !best_gain then best_gain := gain
      done;
      base +. (float_of_int slots *. !best_gain)
    end
  in
  let decode assignment value =
    Jra.solution t (List.map (fun i -> pool_ids.(i)) (Array.to_list assignment)) value
  in
  let outcome, stats = Cpsolve.maximize ?deadline ~bound model ~score in
  let outcome =
    match outcome with
    | Cpsolve.Optimal (assignment, value) -> Solved (decode assignment value)
    | Cpsolve.Timed_out best ->
        Timed_out (Option.map (fun (a, v) -> decode a v) best)
    | Cpsolve.No_solution -> assert false
  in
  (outcome, stats.Cpsolve.first_solution_time)
