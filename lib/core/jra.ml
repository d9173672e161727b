type problem = {
  paper : Topic_vector.t;
  pool : Topic_vector.t array;
  group_size : int;
  scoring : Scoring.kind;
  excluded : bool array option;
  ids : int array option;
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

let make ?(scoring = Scoring.Weighted_coverage) ?excluded ?ids ~paper ~pool
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
  (match ids with
  | Some ids when Array.length ids <> Array.length pool ->
      invalid_arg "Jra.make: id map length mismatch"
  | _ -> ());
  if group_size < 1 then invalid_arg "Jra.make: group_size must be >= 1";
  if group_size > available_of ~pool ~excluded then
    invalid_arg "Jra.make: not enough selectable reviewers";
  { paper; pool; group_size; scoring; excluded; ids }

let of_instance ?(candidates = 0) inst ~paper =
  let n_r = Instance.n_reviewers inst in
  let dp = inst.Instance.delta_p in
  let scoring = inst.Instance.scoring in
  let coi = Instance.conflicts inst ~paper in
  let dense excluded =
    make ?excluded ~scoring ~paper:inst.Instance.papers.(paper)
      ~pool:inst.Instance.reviewers ~group_size:dp ()
  in
  let shortlist =
    if candidates <= 0 || candidates >= n_r then [||]
    else
      (* Candidate retrieval already filters COIs, but keep the
         conflicts authoritative in case the two ever diverge. *)
      Instance.candidates inst ~k:candidates ~paper
      |> Array.to_list
      |> List.filter (fun r -> not (Instance.forbidden inst ~paper ~reviewer:r))
      |> Array.of_list
  in
  if Array.length shortlist < dp then
    (* No pruning asked for, or too few candidates to form a group (tiny
       k or heavy COIs): the dense pool rather than an infeasible
       problem. *)
    dense
      (match coi with
      | [||] -> None
      | rs ->
          let mask = Array.make n_r false in
          Array.iter (fun r -> mask.(r) <- true) rs;
          Some mask)
  else
    match scoring with
    | Scoring.Weighted_coverage | Paper_coverage | Dot_product ->
        (* The compact problem: the shortlist alone, every vector
           projected onto the paper's support (non-empty, since the
           shortlist was retrieved through its postings). f(v, 0) = 0
           under these kinds, so the dropped topics only ever added
           exact zeros: no score or gain changes by a bit. *)
        let supp = Instance.paper_support inst paper in
        let idx = supp.Topic_vector.idx in
        let project (v : Topic_vector.t) = Array.map (fun t -> v.(t)) idx in
        make ~scoring ~ids:shortlist ~paper:supp.Topic_vector.nz
          ~pool:(Array.map (fun r -> project inst.Instance.reviewers.(r)) shortlist)
          ~group_size:dp ()
    | Reviewer_coverage ->
        (* cR credits off-support expertise in full: mask the dense
           pool instead. *)
        let mask = Array.make n_r true in
        Array.iter (fun r -> mask.(r) <- false) shortlist;
        Array.iter (fun r -> mask.(r) <- true) coi;
        dense (Some mask)

let available t = available_of ~pool:t.pool ~excluded:t.excluded

let solution t members score =
  let group =
    match t.ids with
    | None -> members
    | Some ids -> List.map (fun i -> ids.(i)) members
  in
  { group = List.sort compare group; score }

let score_group t members =
  let vectors = List.map (fun r -> t.pool.(r)) members in
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
  let members = List.sort compare !members in
  solution t members (score_group t members)
