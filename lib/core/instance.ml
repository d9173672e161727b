type t = {
  papers : Topic_vector.t array;
  reviewers : Topic_vector.t array;
  delta_p : int;
  delta_r : int;
  scoring : Scoring.kind;
  coi : int array array;
  psupp : Topic_vector.support array;
  rsupp : Topic_vector.support array;
  cindex : Candidate_index.t;
}

let n_papers t = Array.length t.papers
let n_reviewers t = Array.length t.reviewers
let n_topics t = Array.length t.papers.(0)

let create ?(scoring = Scoring.Weighted_coverage) ?(coi = []) ~papers ~reviewers
    ~delta_p ~delta_r () =
  let p = Array.length papers and r = Array.length reviewers in
  let ( let* ) = Result.bind in
  let* () = if p = 0 then Error "no papers" else Ok () in
  let* () = if r = 0 then Error "no reviewers" else Ok () in
  let dim = Array.length papers.(0) in
  let check_vec v =
    if Array.length v <> dim then Error "inconsistent topic dimensions"
    else Topic_vector.validate v
  in
  let* () =
    Array.fold_left
      (fun acc v -> Result.bind acc (fun () -> check_vec v))
      (Ok ()) papers
  in
  let* () =
    Array.fold_left
      (fun acc v -> Result.bind acc (fun () -> check_vec v))
      (Ok ()) reviewers
  in
  let* () =
    if delta_p < 1 || delta_p > r then
      Error "delta_p must satisfy 1 <= delta_p <= R"
    else Ok ()
  in
  let* () = if delta_r < 1 then Error "delta_r must be >= 1" else Ok () in
  let* () =
    if r * delta_r < p * delta_p then
      Error "not enough reviewer capacity: R * delta_r < P * delta_p"
    else Ok ()
  in
  let* () =
    if List.exists (fun (pi, ri) -> pi < 0 || pi >= p || ri < 0 || ri >= r) coi
    then Error "COI pair out of range"
    else Ok ()
  in
  (* Per-paper sorted, deduplicated reviewer ids; papers without a
     conflict share the one empty array, so memory follows the number
     of conflicts, never P x R. *)
  let by_paper = Array.make p [] in
  List.iter (fun (pi, ri) -> by_paper.(pi) <- ri :: by_paper.(pi)) coi;
  let coi =
    Array.map
      (function
        | [] -> [||] | rs -> Array.of_list (List.sort_uniq Int.compare rs))
      by_paper
  in
  let rsupp = Array.map Topic_vector.support reviewers in
  Ok
    {
      papers;
      reviewers;
      delta_p;
      delta_r;
      scoring;
      coi;
      psupp = Array.map Topic_vector.support papers;
      rsupp;
      cindex = Candidate_index.create ~n_topics:dim ~reviewers:rsupp;
    }

let create_exn ?scoring ?coi ~papers ~reviewers ~delta_p ~delta_r () =
  match create ?scoring ?coi ~papers ~reviewers ~delta_p ~delta_r () with
  | Ok t -> t
  | Error msg -> invalid_arg ("Instance.create: " ^ msg)

let conflicts t ~paper = t.coi.(paper)

(* Binary search of the ascending [rs.(lo .. hi - 1)]; top-level so a
   lookup allocates no closure. *)
let rec mem_sorted rs x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let c = Int.compare x rs.(mid) in
  c = 0 || if c < 0 then mem_sorted rs x lo mid else mem_sorted rs x (mid + 1) hi

let forbidden t ~paper ~reviewer =
  let rs = t.coi.(paper) in
  mem_sorted rs reviewer 0 (Array.length rs)

let paper_support t p = t.psupp.(p)
let reviewer_support t r = t.rsupp.(r)

let pair_score t ~paper ~reviewer =
  let rs = t.rsupp.(reviewer) in
  Scoring.score_sparse t.scoring ~v:rs.Topic_vector.vec
    ~v_mass:rs.Topic_vector.mass t.psupp.(paper)

let score_row t ~paper =
  let row = Array.make (n_reviewers t) 0. in
  Scoring.score_into t.scoring ~dst:row ~reviewers:t.rsupp t.psupp.(paper);
  Array.iter (fun r -> row.(r) <- Lap.Hungarian.forbidden) t.coi.(paper);
  row

let score_matrix t = Array.init (n_papers t) (fun p -> score_row t ~paper:p)

let min_workload ~papers ~reviewers ~delta_p =
  ((papers * delta_p) + reviewers - 1) / reviewers

let stage_capacity t = (t.delta_r + t.delta_p - 1) / t.delta_p

let with_scoring t scoring = { t with scoring }

let with_reviewers t reviewers =
  if Array.length reviewers <> Array.length t.reviewers then
    invalid_arg "Instance.with_reviewers: count mismatch";
  Array.iter
    (fun v ->
      if Array.length v <> n_topics t then
        invalid_arg "Instance.with_reviewers: dimension mismatch")
    reviewers;
  let rsupp = Array.map Topic_vector.support reviewers in
  {
    t with
    reviewers;
    rsupp;
    cindex = Candidate_index.create ~n_topics:(n_topics t) ~reviewers:rsupp;
  }

let candidates_with t scratch ~k ~paper =
  Candidate_index.top_k t.cindex scratch ~scoring:t.scoring ~k
    ~forbidden:(fun r -> forbidden t ~paper ~reviewer:r)
    t.psupp.(paper)

let candidates t ~k ~paper =
  candidates_with t (Candidate_index.scratch ()) ~k ~paper

let coi_pairs t =
  let pairs = ref [] in
  for p = n_papers t - 1 downto 0 do
    pairs := Array.fold_right (fun r acc -> (p, r) :: acc) t.coi.(p) !pairs
  done;
  !pairs
