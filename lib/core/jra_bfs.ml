let solve_counting ?deadline (t : Jra.problem) =
  let n = Array.length t.pool in
  let dim = Array.length t.paper in
  let selectable r =
    match t.excluded with None -> true | Some mask -> not mask.(r)
  in
  let best_group = ref [] and best_score = ref neg_infinity in
  let evaluated = ref 0 in
  let timed_out = ref false in
  (* Stack of group vectors, one per depth, reused across siblings. *)
  let gvecs = Array.init (t.group_size + 1) (fun _ -> Array.make dim 0.) in
  let chosen = Array.make t.group_size 0 in
  let rec extend depth first =
    if !timed_out || Wgrap_util.Timer.expired_opt deadline then
      timed_out := true
    else if depth = t.group_size then begin
      incr evaluated;
      let score = Scoring.score t.scoring gvecs.(depth) t.paper in
      if score > !best_score then begin
        best_score := score;
        best_group := Array.to_list (Array.sub chosen 0 t.group_size)
      end
    end
    else
      for r = first to n - 1 do
        if (not !timed_out) && selectable r then begin
          Array.blit gvecs.(depth) 0 gvecs.(depth + 1) 0 dim;
          Topic_vector.extend_max_into ~dst:gvecs.(depth + 1) t.pool.(r);
          chosen.(depth) <- r;
          extend (depth + 1) (r + 1)
        end
      done
  in
  extend 0 0;
  let solution =
    if !best_group = [] then
      (* Deadline expired before the very first combination. *)
      Jra.greedy t
    else Jra.solution t !best_group !best_score
  in
  (solution, !evaluated)

let solve ?deadline t = fst (solve_counting ?deadline t)
