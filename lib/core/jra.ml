type problem = {
  paper : Topic_vector.t;
  pool : Topic_vector.t array;
  group_size : int;
  scoring : Scoring.kind;
  excluded : bool array option;
}

type solution = {
  group : int list;
  score : float;
}

let available_of ~pool ~excluded =
  match excluded with
  | None -> Array.length pool
  | Some mask ->
      Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 mask

let make ?(scoring = Scoring.Weighted_coverage) ?excluded ~paper ~pool
    ~group_size () =
  let dim = Array.length paper in
  if dim = 0 then invalid_arg "Jra.make: empty paper vector";
  Array.iter
    (fun r ->
      if Array.length r <> dim then invalid_arg "Jra.make: dimension mismatch")
    pool;
  (match excluded with
  | Some mask when Array.length mask <> Array.length pool ->
      invalid_arg "Jra.make: exclusion mask length mismatch"
  | _ -> ());
  if group_size < 1 then invalid_arg "Jra.make: group_size must be >= 1";
  if group_size > available_of ~pool ~excluded then
    invalid_arg "Jra.make: not enough selectable reviewers";
  { paper; pool; group_size; scoring; excluded }

let of_instance ?(candidates = 0) inst ~paper =
  let n_r = Instance.n_reviewers inst in
  let coi_mask =
    match Instance.conflicts inst ~paper with
    | [||] -> None
    | rs ->
        let mask = Array.make n_r false in
        Array.iter (fun r -> mask.(r) <- true) rs;
        Some mask
  in
  let excluded =
    if candidates <= 0 || candidates >= n_r then coi_mask
    else begin
      let cands = Instance.candidates inst ~k:candidates ~paper in
      if Array.length cands < inst.Instance.delta_p then
        (* Too few candidates to form a group (tiny k or heavy COIs):
           fall back to the dense pool rather than make an infeasible
           problem. *)
        coi_mask
      else begin
        let mask = Array.make n_r true in
        Array.iter (fun r -> mask.(r) <- false) cands;
        (* Candidate retrieval already filters COIs, but keep the COI
           mask authoritative in case the two ever diverge. *)
        (match coi_mask with
        | Some coi ->
            Array.iteri (fun r b -> if b then mask.(r) <- true) coi
        | None -> ());
        Some mask
      end
    end
  in
  make ?excluded ~scoring:inst.Instance.scoring
    ~paper:inst.Instance.papers.(paper) ~pool:inst.Instance.reviewers
    ~group_size:inst.Instance.delta_p ()

let available t = available_of ~pool:t.pool ~excluded:t.excluded

let score_group t group =
  let vectors = List.map (fun r -> t.pool.(r)) group in
  Scoring.group_score t.scoring vectors t.paper

let greedy t =
  let n = Array.length t.pool in
  let dim = Array.length t.paper in
  let blocked = Array.make n false in
  (match t.excluded with
  | Some mask -> Array.iteri (fun r b -> if b then blocked.(r) <- true) mask
  | None -> ());
  let gvec = Scoring.empty_group ~dim in
  let members = ref [] in
  for _ = 1 to t.group_size do
    let best = ref (-1) and best_gain = ref neg_infinity in
    for r = 0 to n - 1 do
      if not blocked.(r) then begin
        let g = Scoring.gain t.scoring ~group:gvec t.pool.(r) t.paper in
        if g > !best_gain then begin
          best_gain := g;
          best := r
        end
      end
    done;
    (* [make] guarantees at least [group_size] selectable reviewers. *)
    blocked.(!best) <- true;
    Topic_vector.extend_max_into ~dst:gvec t.pool.(!best);
    members := !best :: !members
  done;
  let group = List.sort compare !members in
  { group; score = score_group t group }
