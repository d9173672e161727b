module Heap = Wgrap_util.Heap

type stats = {
  nodes : int;
  pruned : int;
}

type candidate = { members : int array; cscore : float }

(* The search itself, returning its counters by value: every piece of
   state below is local to the call, so any number of domains may run it
   at once. *)
let top_k_counted ?(use_bound = true) ?deadline (t : Jra.problem) ~k =
  if k < 1 then invalid_arg "Jra_bba.top_k: k must be >= 1";
  let n = Array.length t.pool in
  let dim = Array.length t.paper in
  let dp = t.group_size in
  (* T sorted lists: order.(topic) lists reviewers by descending expertise
     on that topic. *)
  let order =
    Array.init dim (fun topic ->
        let idx = Array.init n (fun r -> r) in
        Array.stable_sort
          (fun a b -> Float.compare t.pool.(b).(topic) t.pool.(a).(topic))
          idx;
        idx)
  in
  (* blocked.(r) > 0 makes r infeasible: excluded, in the running group,
     or visited at some stage of the current path. *)
  let blocked = Array.make n 0 in
  (match t.excluded with
  | Some mask -> Array.iteri (fun r b -> if b then blocked.(r) <- 1) mask
  | None -> ());
  let cursors = Array.make_matrix (dp + 1) dim 0 in
  let visited = Array.make (dp + 1) [] in
  let chosen = Array.make dp (-1) in
  let ub_vec = Array.make dim 0. in
  (* Min-heap of the k best candidates (worst on top). *)
  let best =
    Heap.create ~capacity:(k + 1)
      ~cmp:(fun a b -> Float.compare b.cscore a.cscore)
      ()
  in
  let threshold () =
    if Heap.length best < k then neg_infinity
    else match Heap.peek best with Some c -> c.cscore | None -> neg_infinity
  in
  let record group_vec =
    let score = Scoring.score t.scoring group_vec t.paper in
    if score > threshold () then begin
      let members = Array.copy chosen in
      Array.sort compare members;
      Heap.push best { members; cscore = score };
      if Heap.length best > k then ignore (Heap.pop best)
    end
  in
  let nodes = ref 0 and pruned = ref 0 in
  let advance cur =
    for topic = 0 to dim - 1 do
      let pos = ref cur.(topic) in
      while !pos < n && blocked.(order.(topic).(!pos)) > 0 do
        incr pos
      done;
      cur.(topic) <- !pos
    done
  in
  let timed_out = ref false in
  let rec stage s gvec =
    (* Invariant: [gvec] is the group vector of chosen.(0 .. s-2); the
       stage picks member number s. *)
    let cur = cursors.(s) in
    let continue = ref true in
    while !continue do
      if !timed_out || Wgrap_util.Timer.expired_opt deadline then begin
        (* Deadline fired: unwind every stage, keeping the incumbents. *)
        timed_out := true;
        continue := false
      end
      else begin
      advance cur;
      (* Bound (Eq. 3): cursor heads are per-topic maxima over all still
         feasible reviewers, so no extension can exceed ub_vec. *)
      let any = ref false in
      for topic = 0 to dim - 1 do
        if cur.(topic) < n then begin
          any := true;
          ub_vec.(topic) <-
            Float.max gvec.(topic) t.pool.(order.(topic).(cur.(topic))).(topic)
        end
        else ub_vec.(topic) <- gvec.(topic)
      done;
      if not !any then continue := false
      else if
        use_bound && Scoring.score t.scoring ub_vec t.paper <= threshold ()
      then begin
        incr pruned;
        continue := false
      end
      else begin
        (* Branching: expand the cursor reviewer with maximal gain. *)
        let best_r = ref (-1) and best_gain = ref neg_infinity in
        for topic = 0 to dim - 1 do
          if cur.(topic) < n then begin
            let r = order.(topic).(cur.(topic)) in
            if r <> !best_r then begin
              let g = Scoring.gain t.scoring ~group:gvec t.pool.(r) t.paper in
              if g > !best_gain then begin
                best_gain := g;
                best_r := r
              end
            end
          end
        done;
        let r = !best_r in
        incr nodes;
        blocked.(r) <- blocked.(r) + 1;
        visited.(s) <- r :: visited.(s);
        chosen.(s - 1) <- r;
        if s = dp then begin
          let gv = Topic_vector.extend_max gvec t.pool.(r) in
          record gv
        end
        else begin
          Array.blit cur 0 cursors.(s + 1) 0 dim;
          stage (s + 1) (Topic_vector.extend_max gvec t.pool.(r))
        end
      end
      end
    done;
    (* Reset the visited information of this stage (backtracking). *)
    List.iter (fun r -> blocked.(r) <- blocked.(r) - 1) visited.(s);
    visited.(s) <- []
  in
  stage 1 (Scoring.empty_group ~dim);
  let counters = { nodes = !nodes; pruned = !pruned } in
  match
    Heap.to_sorted_list best
    |> List.rev
    |> List.map (fun c ->
           Jra.solution t (Array.to_list c.members) c.cscore)
  with
  | [] ->
      (* Deadline fired before the first leaf (the DFS reaches one after
         only delta_p expansions, so this needs an already-expired
         deadline): fall back to a greedy pick so callers always get an
         incumbent. *)
      ([ Jra.greedy t ], counters)
  | sols -> (sols, counters)

let top_k ?use_bound ?deadline t ~k =
  fst (top_k_counted ?use_bound ?deadline t ~k)

let solve_counting ?use_bound ?deadline t =
  match top_k_counted ?use_bound ?deadline t ~k:1 with
  | s :: _, counters -> (s, counters)
  | [], _ -> assert false

let solve ?use_bound ?deadline t = fst (solve_counting ?use_bound ?deadline t)
