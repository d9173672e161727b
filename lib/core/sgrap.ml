type topic_set = int list

let encode ~n_topics set =
  let v = Array.make n_topics 0. in
  List.iter
    (fun t ->
      if t < 0 || t >= n_topics then invalid_arg "Sgrap.encode: topic out of range";
      v.(t) <- 1.)
    set;
  v

let decode v =
  let acc = ref [] in
  for t = Array.length v - 1 downto 0 do
    if v.(t) > 0. then acc := t :: !acc
  done;
  !acc

let set_coverage ~group ~paper =
  match paper with
  | [] -> 0.
  | _ ->
      let union = List.sort_uniq compare (List.concat group) in
      let paper = List.sort_uniq compare paper in
      let covered = List.filter (fun t -> List.mem t union) paper in
      float_of_int (List.length covered) /. float_of_int (List.length paper)

let instance ?coi ~n_topics ~papers ~reviewers ~delta_p ~delta_r () =
  let enc = Array.map (encode ~n_topics) in
  Instance.create ?coi ~scoring:Scoring.Weighted_coverage ~papers:(enc papers)
    ~reviewers:(enc reviewers) ~delta_p ~delta_r ()

let binarize ?threshold inst =
  let cut v =
    let threshold =
      match threshold with
      | Some t -> t
      | None ->
          (* Mean positive weight: keeps a vector's salient topics. *)
          let sum = ref 0. and count = ref 0 in
          Array.iter
            (fun x ->
              if x > 0. then begin
                sum := !sum +. x;
                incr count
              end)
            v;
          if !count = 0 then infinity else !sum /. float_of_int !count
    in
    Array.map (fun x -> if x >= threshold then 1. else 0.) v
  in
  let papers = Array.map cut inst.Instance.papers in
  let reviewers = Array.map cut inst.Instance.reviewers in
  (* A paper that loses every topic would have zero mass; keep its top
     topic so scores stay well-defined. *)
  Array.iteri
    (fun p v ->
      if Array.for_all (fun x -> Float.equal x 0.) v then begin
        let top = Wgrap_util.Stats.argmax inst.Instance.papers.(p) in
        v.(top) <- 1.
      end)
    papers;
  Instance.create_exn ~scoring:inst.Instance.scoring
    ~coi:(Instance.coi_pairs inst) ~papers ~reviewers
    ~delta_p:inst.Instance.delta_p ~delta_r:inst.Instance.delta_r ()
