type t = { groups : int list array }

let empty ~n_papers = { groups = Array.make n_papers [] }
let copy t = { groups = Array.copy t.groups }

let of_pairs ~n_papers pairs =
  let t = empty ~n_papers in
  List.iter
    (fun (r, p) ->
      if p < 0 || p >= n_papers then invalid_arg "Assignment.of_pairs: bad paper";
      t.groups.(p) <- r :: t.groups.(p))
    pairs;
  t

let pairs t =
  let acc = ref [] in
  for p = Array.length t.groups - 1 downto 0 do
    List.iter (fun r -> acc := (r, p) :: !acc) t.groups.(p)
  done;
  !acc

let group t p = t.groups.(p)
let add t ~paper ~reviewer = t.groups.(paper) <- reviewer :: t.groups.(paper)
let size t = Array.fold_left (fun acc g -> acc + List.length g) 0 t.groups

let workloads t ~n_reviewers =
  let w = Array.make n_reviewers 0 in
  Array.iter (List.iter (fun r -> w.(r) <- w.(r) + 1)) t.groups;
  w

let group_vector inst t p =
  let dim = Instance.n_topics inst in
  let acc = Scoring.empty_group ~dim in
  List.iter
    (fun r -> Topic_vector.extend_max_into ~dst:acc inst.Instance.reviewers.(r))
    t.groups.(p);
  acc

(* For the three kinds with [f(v, 0) = 0] the score reads the group
   only on the paper's support, and a coordinatewise max is exact, so
   the sparse kernel equals the dense one bit for bit in
   O(|group| * nnz(p)) instead of O(|group| * T). Reviewer_coverage
   scores off-support group mass, and the sparse kernel rejects an
   empty group: both keep the dense path. *)
let paper_score inst t p =
  match (inst.Instance.scoring, t.groups.(p)) with
  | Scoring.Reviewer_coverage, _ | _, [] ->
      Scoring.score inst.Instance.scoring (group_vector inst t p)
        inst.Instance.papers.(p)
  | (Scoring.Weighted_coverage | Scoring.Paper_coverage | Scoring.Dot_product), group ->
      Scoring.group_score_sparse inst.Instance.scoring
        (List.map (fun r -> inst.Instance.reviewers.(r)) group)
        (Instance.paper_support inst p)

let coverage inst t =
  let acc = ref 0. in
  for p = 0 to Array.length t.groups - 1 do
    acc := !acc +. paper_score inst t p
  done;
  !acc

(* The canonical serialization: one line per paper, [paper \t ids].
   Reviewer ids are written in reverse list order so that {!of_lines}'s
   [List.rev] restores the in-memory order exactly — group lists are
   semantically unordered, but byte-exact round-tripping is what lets a
   resumed stochastic refinement replay the uninterrupted run's stream
   of victim draws. *)
let to_lines t =
  Array.to_list
    (Array.mapi
       (fun p group ->
         Printf.sprintf "%d\t%s" p
           (String.concat ";" (List.map string_of_int (List.rev group))))
       t.groups)

let of_lines ~n_papers lines =
  let ( let* ) = Result.bind in
  let t = empty ~n_papers in
  let seen = Array.make n_papers false in
  let rec go lineno = function
    | [] -> Ok t
    | "" :: rest -> go (lineno + 1) rest
    | line :: rest -> (
        match String.split_on_char '\t' line with
        | [ p; rs ] -> (
            match int_of_string_opt p with
            | Some p when p >= 0 && p < n_papers && not seen.(p) ->
                seen.(p) <- true;
                let ids =
                  String.split_on_char ';' rs
                  |> List.filter (fun s -> s <> "")
                  |> List.map int_of_string_opt
                in
                let* ids =
                  if List.for_all Option.is_some ids then
                    Ok (List.map Option.get ids)
                  else Error (Printf.sprintf "line %d: bad reviewer id" lineno)
                in
                t.groups.(p) <- List.rev ids;
                go (lineno + 1) rest
            | _ -> Error (Printf.sprintf "line %d: bad paper id" lineno))
        | _ -> Error (Printf.sprintf "line %d: expected 2 fields" lineno))
  in
  go 1 lines

let save_tsv t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun line -> output_string oc (line ^ "\n")) (to_lines t))

let load_tsv ~n_papers path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      of_lines ~n_papers (read []))

let equal a b =
  Array.length a.groups = Array.length b.groups
  && Array.for_all2
       (fun ga gb ->
         List.sort_uniq compare ga = List.sort_uniq compare gb)
       a.groups b.groups

let validate_gen ~exact inst t =
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  if Array.length t.groups <> n_p then Error "paper count mismatch"
  else begin
    let workload = Array.make n_r 0 in
    let rec check_papers p =
      if p = n_p then Ok ()
      else begin
        let g = t.groups.(p) in
        let rec check_group seen = function
          | [] ->
              let size = List.length g in
              if size <> inst.Instance.delta_p && (exact || size > inst.Instance.delta_p)
              then
                Error
                  (Printf.sprintf "paper %d has %d reviewers, needs %s%d" p size
                     (if exact then "" else "at most ")
                     inst.Instance.delta_p)
              else check_papers (p + 1)
          | r :: rest ->
              if r < 0 || r >= n_r then Error "reviewer index out of range"
              else if List.mem r seen then
                Error (Printf.sprintf "paper %d repeats reviewer %d" p r)
              else if Instance.forbidden inst ~paper:p ~reviewer:r then
                Error (Printf.sprintf "COI pair (r%d, p%d) used" r p)
              else begin
                workload.(r) <- workload.(r) + 1;
                check_group (r :: seen) rest
              end
        in
        check_group [] g
      end
    in
    match check_papers 0 with
    | Error _ as e -> e
    | Ok () ->
        let bad = ref None in
        Array.iteri
          (fun r w ->
            if w > inst.Instance.delta_r && !bad = None then bad := Some (r, w))
          workload;
        (match !bad with
        | Some (r, w) ->
            Error
              (Printf.sprintf "reviewer %d has workload %d > delta_r=%d" r w
                 inst.Instance.delta_r)
        | None -> Ok ())
  end

let validate inst t = validate_gen ~exact:true inst t
let validate_partial inst t = validate_gen ~exact:false inst t
let is_feasible inst t = Result.is_ok (validate inst t)
