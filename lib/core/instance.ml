type t = {
  papers : Topic_vector.t array;
  reviewers : Topic_vector.t array;
  delta_p : int;
  delta_r : int;
  scoring : Scoring.kind;
  coi : bool array array option;
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
  let* coi_matrix =
    match coi with
    | [] -> Ok None
    | pairs ->
        let m = Array.make_matrix p r false in
        let rec fill = function
          | [] -> Ok (Some m)
          | (pi, ri) :: rest ->
              if pi < 0 || pi >= p || ri < 0 || ri >= r then
                Error "COI pair out of range"
              else begin
                m.(pi).(ri) <- true;
                fill rest
              end
        in
        fill pairs
  in
  let rsupp = Array.map Topic_vector.support reviewers in
  Ok
    {
      papers;
      reviewers;
      delta_p;
      delta_r;
      scoring;
      coi = coi_matrix;
      psupp = Array.map Topic_vector.support papers;
      rsupp;
      cindex = Candidate_index.create ~n_topics:dim ~reviewers:rsupp;
    }

let create_exn ?scoring ?coi ~papers ~reviewers ~delta_p ~delta_r () =
  match create ?scoring ?coi ~papers ~reviewers ~delta_p ~delta_r () with
  | Ok t -> t
  | Error msg -> invalid_arg ("Instance.create: " ^ msg)

let forbidden t ~paper ~reviewer =
  match t.coi with None -> false | Some m -> m.(paper).(reviewer)

let paper_support t p = t.psupp.(p)
let reviewer_support t r = t.rsupp.(r)

let pair_score t ~paper ~reviewer =
  let rs = t.rsupp.(reviewer) in
  Scoring.score_sparse t.scoring ~v:rs.Topic_vector.vec
    ~v_mass:rs.Topic_vector.mass t.psupp.(paper)

let score_row t ~paper =
  let row = Array.make (n_reviewers t) 0. in
  Scoring.score_into t.scoring ~dst:row ~reviewers:t.rsupp t.psupp.(paper);
  (match t.coi with
  | None -> ()
  | Some m ->
      Array.iteri
        (fun r bad -> if bad then row.(r) <- Lap.Hungarian.forbidden)
        m.(paper));
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

let candidates t ~k ~paper =
  Candidate_index.top_k t.cindex ~scoring:t.scoring ~k
    ~forbidden:(fun r -> forbidden t ~paper ~reviewer:r)
    t.psupp.(paper)

let coi_pairs t =
  match t.coi with
  | None -> []
  | Some m ->
      let acc = ref [] in
      Array.iteri
        (fun p row ->
          Array.iteri (fun r bad -> if bad then acc := (p, r) :: !acc) row)
        m;
      List.rev !acc
