(* Faithful replica of the dense solvers the sparse kernel replaced,
   kept verbatim as a reference implementation: test_kernel's
   "SDGA/SRA = dense replica" case checks that [Sdga.solve] and
   [Sra.refine] reach its coverage on the same instances. Everything
   here recomputes O(T) dense gains per cell and scans member lists per
   cell — the behavior the sparse kernel removed from lib/core. *)

module Rng = Wgrap_util.Rng
open Wgrap

(* Pre-PR [Instance.score_matrix]: dense [Scoring.score] per cell. *)
let score_matrix inst =
  Array.init (Instance.n_papers inst) (fun p ->
      Array.init (Instance.n_reviewers inst) (fun r ->
          if Instance.forbidden inst ~paper:p ~reviewer:r then
            Lap.Hungarian.forbidden
          else
            Scoring.score inst.Instance.scoring inst.Instance.reviewers.(r)
              inst.Instance.papers.(p)))

(* Pre-PR [Stage.stage_score]: dense gain + List.mem membership scan. *)
let stage_score inst ~capacity ~group_vecs ~members p r =
  if
    capacity.(r) = 0
    || List.mem r members
    || Instance.forbidden inst ~paper:p ~reviewer:r
  then Lap.Hungarian.forbidden
  else
    Scoring.gain inst.Instance.scoring ~group:group_vecs
      inst.Instance.reviewers.(r) inst.Instance.papers.(p)

(* Pre-PR [Stage.solve]: full dense gain matrix per stage, Hungarian on
   replicated capacity columns. *)
let stage_solve inst ~current ~capacity =
  let n_r = Instance.n_reviewers inst in
  let n_p = Instance.n_papers inst in
  let paper_list = Array.init n_p Fun.id in
  let owner = ref [] in
  for r = n_r - 1 downto 0 do
    for _ = 1 to capacity.(r) do
      owner := r :: !owner
    done
  done;
  let owner = Array.of_list !owner in
  if Array.length owner < n_p then failwith "stage_solve: infeasible stage";
  let score =
    Array.map
      (fun p ->
        let group_vecs = Assignment.group_vector inst current p in
        let members = Assignment.group current p in
        let per_reviewer =
          Array.init n_r (fun r ->
              stage_score inst ~capacity ~group_vecs ~members p r)
        in
        Array.map (fun r -> per_reviewer.(r)) owner)
      paper_list
  in
  let cols_of_rows, _ = Lap.Hungarian.maximize score in
  Array.to_list
    (Array.mapi (fun i c -> (paper_list.(i), owner.(c))) cols_of_rows)

(* Pre-PR [Sdga.solve]. *)
let sdga inst =
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  let assignment = Assignment.empty ~n_papers:n_p in
  let used = Array.make n_r 0 in
  let per_stage = Instance.stage_capacity inst in
  for _stage = 1 to inst.Instance.delta_p do
    let confined =
      Array.init n_r (fun r -> min per_stage (inst.Instance.delta_r - used.(r)))
    in
    let pairs =
      try stage_solve inst ~current:assignment ~capacity:confined
      with Failure _ ->
        let relaxed =
          Array.init n_r (fun r -> inst.Instance.delta_r - used.(r))
        in
        stage_solve inst ~current:assignment ~capacity:relaxed
    in
    List.iter
      (fun (p, r) ->
        Assignment.add assignment ~paper:p ~reviewer:r;
        used.(r) <- used.(r) + 1)
      pairs
  done;
  assignment

(* Pre-PR [Sra.refine] (fixed round budget; omega disabled by callers
   via [max_rounds]): per-round full-matrix refill stages. *)
let sra_refine ~lambda ~rounds ~rng inst start =
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  let score_matrix = score_matrix inst in
  let denom = Array.make n_r 0. in
  Array.iter
    (fun row ->
      for r = 0 to n_r - 1 do
        if row.(r) <> Lap.Hungarian.forbidden then
          denom.(r) <- denom.(r) +. row.(r)
      done)
    score_matrix;
  let keep_probability ~round ~paper ~reviewer =
    let s = score_matrix.(paper).(reviewer) in
    let ratio =
      if denom.(reviewer) > 0. && s <> Lap.Hungarian.forbidden then
        s /. denom.(reviewer)
      else 0.
    in
    Float.max
      (1. /. float_of_int n_r)
      (exp (-.lambda *. float_of_int round) *. ratio)
  in
  let best = ref (Assignment.copy start) in
  let best_score = ref (Assignment.coverage inst start) in
  let current = ref (Assignment.copy start) in
  (try
     for round = 1 to rounds do
       let trimmed = Assignment.empty ~n_papers:n_p in
       let workload = Array.make n_r 0 in
       for p = 0 to n_p - 1 do
         let members = Array.of_list (Assignment.group !current p) in
         let weights =
           Array.map
             (fun r -> 1. -. keep_probability ~round ~paper:p ~reviewer:r)
             members
         in
         let victim =
           if Array.fold_left ( +. ) 0. weights <= 0. then
             Rng.int rng (Array.length members)
           else Rng.categorical rng weights
         in
         Array.iteri
           (fun i r ->
             if i <> victim then begin
               Assignment.add trimmed ~paper:p ~reviewer:r;
               workload.(r) <- workload.(r) + 1
             end)
           members
       done;
       let capacity =
         Array.init n_r (fun r -> inst.Instance.delta_r - workload.(r))
       in
       let pairs = stage_solve inst ~current:trimmed ~capacity in
       List.iter (fun (p, r) -> Assignment.add trimmed ~paper:p ~reviewer:r) pairs;
       current := trimmed;
       let score = Assignment.coverage inst trimmed in
       if score > !best_score +. 1e-12 then begin
         best_score := score;
         best := Assignment.copy trimmed
       end
     done
   with Failure _ -> ());
  !best
