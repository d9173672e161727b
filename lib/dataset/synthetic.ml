module Rng = Wgrap_util.Rng
module Sv = Seed_vocabulary

type config = {
  authors_per_area : int;
  abstract_len : int;
  history_papers_per_area_year : int;
  eval_counts : (Corpus.area * int * int) list;
  crossover : float;
}

let default_config =
  {
    authors_per_area = 320;
    abstract_len = 60;
    history_papers_per_area_year = 120;
    eval_counts =
      [
        (Corpus.Databases, 2008, 617);
        (Corpus.Databases, 2009, 513);
        (Corpus.Data_mining, 2008, 545);
        (Corpus.Data_mining, 2009, 648);
        (Corpus.Theory, 2008, 281);
        (Corpus.Theory, 2009, 226);
      ];
    crossover = 0.15;
  }

let scaled config factor =
  if factor <= 0. || factor > 1. then invalid_arg "Synthetic.scaled";
  let s n = max 2 (int_of_float (Float.round (float_of_int n *. factor))) in
  {
    config with
    authors_per_area = s config.authors_per_area;
    history_papers_per_area_year = s config.history_papers_per_area_year;
    eval_counts = List.map (fun (a, y, n) -> (a, y, s n)) config.eval_counts;
  }

type ground_truth = {
  topic_word : float array array;
  author_mixture : float array array;
  paper_mixture : float array array;
  vocab_words : string array;
}

let venues_of_area = function
  | Corpus.Databases -> [ "SIGMOD"; "VLDB"; "ICDE"; "PODS" ]
  | Corpus.Data_mining -> [ "SIGKDD"; "ICDM"; "SDM"; "CIKM" ]
  | Corpus.Theory -> [ "STOC"; "FOCS"; "SODA" ]

let areas = [ Corpus.Databases; Corpus.Data_mining; Corpus.Theory ]

let area_topics = function
  | Corpus.Databases -> Sv.databases_topics
  | Corpus.Data_mining -> Sv.data_mining_topics
  | Corpus.Theory -> Sv.theory_topics

(* The word universe: every topic keyword once, then the general filler
   words. *)
let build_vocab () =
  let table = Hashtbl.create 512 in
  let ordered = ref [] in
  let add w =
    if not (Hashtbl.mem table w) then begin
      Hashtbl.replace table w (Hashtbl.length table);
      ordered := w :: !ordered
    end
  in
  Array.iter (List.iter add) Sv.topic_keywords;
  List.iter add Sv.general_words;
  let words = Array.of_list (List.rev !ordered) in
  (table, words)

(* Topic t: 75% of the mass on its own keywords (Dirichlet-jittered),
   25% spread uniformly over the general words. *)
let build_topic_word rng table n_words =
  Array.map
    (fun keywords ->
      let dist = Array.make n_words 0. in
      let own = Rng.dirichlet_sym rng ~alpha:0.7 ~dim:(List.length keywords) in
      List.iteri
        (fun i w -> dist.(Hashtbl.find table w) <- 0.75 *. own.(i))
        keywords;
      let share = 0.25 /. float_of_int (List.length Sv.general_words) in
      List.iter
        (fun w ->
          let id = Hashtbl.find table w in
          dist.(id) <- dist.(id) +. share)
        Sv.general_words;
      dist)
    Sv.topic_keywords

let author_mixture_for rng config area =
  let home = area_topics area in
  let topics =
    if Rng.uniform rng < config.crossover then begin
      (* Interdisciplinary author: blend a second area in. *)
      let other =
        List.filter (fun a -> a <> area) areas
        |> fun l -> List.nth l (Rng.int rng (List.length l))
      in
      List.sort_uniq compare (home @ area_topics other)
    end
    else home
  in
  let weights = Rng.dirichlet_sym rng ~alpha:0.25 ~dim:(List.length topics) in
  let mixture = Array.make Sv.n_topics 0. in
  List.iteri (fun i t -> mixture.(t) <- weights.(i)) topics;
  mixture

let sample_abstract rng ~topic_word ~authors_mix ~len =
  let n_authors = Array.length authors_mix in
  let counts = Array.make Sv.n_topics 0 in
  let words =
    List.init len (fun _ ->
        let mix = authors_mix.(Rng.int rng n_authors) in
        let t = Rng.categorical rng mix in
        counts.(t) <- counts.(t) + 1;
        Rng.categorical rng topic_word.(t))
  in
  let mixture =
    Array.map (fun c -> float_of_int c /. float_of_int len) counts
  in
  (words, mixture)

let surname_stems =
  [| "chen"; "kumar"; "smith"; "garcia"; "tanaka"; "mueller"; "rossi";
     "ivanov"; "kim"; "santos"; "dubois"; "larsen"; "novak"; "silva";
     "haddad"; "okafor"; "berg"; "costa"; "fischer"; "moreau" |]

let generate ?(config = default_config) ~rng () =
  let table, vocab_words = build_vocab () in
  let n_words = Array.length vocab_words in
  let topic_word = build_topic_word rng table n_words in
  (* Authors. *)
  let n_authors = config.authors_per_area * List.length areas in
  let authors = Array.make n_authors None in
  let author_mixture = Array.make n_authors [||] in
  let idx = ref 0 in
  List.iter
    (fun area ->
      for _ = 1 to config.authors_per_area do
        let id = !idx in
        author_mixture.(id) <- author_mixture_for rng config area;
        let name =
          Printf.sprintf "%c. %s-%d"
            (Char.chr (Char.code 'a' + Rng.int rng 26))
            surname_stems.(Rng.int rng (Array.length surname_stems))
            id
        in
        authors.(id) <- Some { Corpus.author_id = id; name; area; h_index = 0 };
        incr idx
      done)
    areas;
  let authors_of_area area =
    Array.to_list authors
    |> List.filter_map (fun a ->
           match a with
           | Some a when a.Corpus.area = area -> Some a.Corpus.author_id
           | _ -> None)
    |> Array.of_list
  in
  let area_pool =
    List.map (fun area -> (area, authors_of_area area)) areas
  in
  (* Papers: per (area, year) quota, venues round-robin by random pick. *)
  let quotas =
    List.concat_map
      (fun area ->
        List.concat
          [
            List.init 8 (fun i ->
                (area, 2000 + i, config.history_papers_per_area_year));
            List.filter_map
              (fun (a, y, n) -> if a = area then Some (area, y, n) else None)
              config.eval_counts;
          ])
      areas
  in
  let papers = ref [] and paper_mixtures = ref [] in
  let paper_count = ref 0 in
  List.iter
    (fun (area, year, quota) ->
      let pool = List.assoc area area_pool in
      let venues = Array.of_list (venues_of_area area) in
      for _ = 1 to quota do
        let n_auth = 1 + Rng.int rng 3 in
        let picked =
          Rng.sample_without_replacement rng n_auth (Array.length pool)
          |> Array.map (fun i -> pool.(i))
        in
        let mixes = Array.map (fun a -> author_mixture.(a)) picked in
        let words, mixture =
          sample_abstract rng ~topic_word ~authors_mix:mixes
            ~len:config.abstract_len
        in
        let dominant = Wgrap_util.Stats.argmax mixture in
        let kw = Sv.topic_keywords.(dominant) in
        let title =
          Printf.sprintf "On %s and %s"
            (List.nth kw (Rng.int rng (List.length kw)))
            (List.nth kw (Rng.int rng (List.length kw)))
        in
        let abstract =
          String.concat " " (List.map (fun id -> vocab_words.(id)) words)
        in
        papers :=
          {
            Corpus.paper_id = !paper_count;
            title;
            abstract;
            author_ids = Array.to_list picked;
            venue = venues.(Rng.int rng (Array.length venues));
            year;
          }
          :: !papers;
        paper_mixtures := mixture :: !paper_mixtures;
        incr paper_count
      done)
    quotas;
  let papers = Array.of_list (List.rev !papers) in
  let paper_mixture = Array.of_list (List.rev !paper_mixtures) in
  (* h-indices: sublinear in publication count, jittered. *)
  let pub_count = Array.make n_authors 0 in
  Array.iter
    (fun p ->
      List.iter
        (fun a -> pub_count.(a) <- pub_count.(a) + 1)
        p.Corpus.author_ids)
    papers;
  let authors =
    Array.mapi
      (fun id a ->
        match a with
        | Some a ->
            let pubs = float_of_int pub_count.(id) in
            let h =
              int_of_float (Float.round (sqrt pubs *. (1.5 +. Rng.uniform rng)))
            in
            { a with Corpus.h_index = min pub_count.(id) h }
        | None -> assert false)
      authors
  in
  ( { Corpus.authors; papers },
    {
      topic_word =
        Array.map
          (fun dist ->
            (* Jitter can leave tiny normalization drift; fix it here. *)
            Wgrap_util.Stats.normalize dist)
          topic_word;
      author_mixture;
      paper_mixture;
      vocab_words;
    } )

(* {1 Raw-instance presets}

   The corpus generator above exercises the whole ATM pipeline but tops
   out around 10^3 authors; the scale benchmarks need raw topic-vector
   instances two orders of magnitude larger. These presets skip the
   corpus entirely: topic popularity is Zipf-skewed (a handful of hot
   topics shared by thousands of reviewers, a long tail nobody works
   on — the regime where an inverted index prunes well and where dense
   matrices drown), and every vector is a normalized sparse mixture of
   a few sampled topics, the shape the topic models emit. *)

type instance_preset = {
  preset_name : string;
  n_reviewers : int;
  n_papers : int;
  n_topics : int;
  delta_p : int;
  delta_r : int;
  reviewer_nnz : int;
  paper_nnz : int;
  zipf_s : float;
}

let xl_preset =
  {
    preset_name = "xl";
    n_reviewers = 50_000;
    n_papers = 5_000;
    n_topics = 500;
    delta_p = 3;
    delta_r = 3;
    reviewer_nnz = 8;
    paper_nnz = 6;
    zipf_s = 1.1;
  }

let quick_preset =
  {
    xl_preset with
    preset_name = "quick";
    n_reviewers = 3_000;
    n_papers = 300;
    n_topics = 120;
  }

let huge_preset =
  {
    preset_name = "huge";
    n_reviewers = 1_000_000;
    n_papers = 100_000;
    n_topics = 1_000;
    delta_p = 3;
    delta_r = 3;
    reviewer_nnz = 8;
    paper_nnz = 6;
    zipf_s = 1.1;
  }

let instance_presets = [ quick_preset; xl_preset; huge_preset ]

let preset_of_name name =
  List.find_opt
    (fun p -> String.equal p.preset_name name)
    instance_presets

(* Unnormalized Zipf popularity: topic t drawn with weight 1/(t+1)^s. *)
let zipf_weights ~s ~dim =
  Array.init dim (fun t -> float_of_int (t + 1) ** -.s)

(* Prefix sums of [weights], accumulated left-to-right in exactly the
   order {!Rng.categorical}'s scan accumulates them, so the
   binary-search sampler below reproduces its draws bit for bit. *)
let cumulative weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Synthetic.cumulative: empty weights";
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. weights.(i);
    cum.(i) <- !acc
  done;
  if !acc <= 0. then
    invalid_arg "Synthetic.cumulative: weights must have positive sum";
  cum

(* Bit-identical to [Rng.categorical rng weights] given
   [cumulative weights]: one uniform draw scaled by the same total,
   then the smallest index whose prefix sum exceeds the target, falling
   back to the last index exactly as the linear scan does. O(log n) per
   draw instead of O(n) — the difference that makes emitting the [huge]
   preset's ~10^6 reviewer vectors tractable. *)
let sample_cumulative rng cum =
  let n = Array.length cum in
  let target = Rng.uniform rng *. cum.(n - 1) in
  if target < cum.(0) then 0
  else begin
    (* invariant: cum.(lo) <= target, and the answer is in (lo, hi] *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if target < cum.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

(* A sparse mixture over [nnz] distinct Zipf-sampled topics. Rejection
   on collisions terminates fast: even the hottest topic holds well
   under half the total mass at the preset skews. The draws are
   normalized in place by the same [Stats.sum] total [Stats.normalize]
   divides by, so the values equal its output bit for bit without a
   second T-length copy; a zero-mass draw ([nnz = 0]) takes
   [Stats.normalize]'s uniform fallback. *)
let skewed_vector rng ~cum ~dim ~nnz =
  let v = Array.make dim 0. in
  let picked = ref 0 in
  while !picked < nnz do
    let t = sample_cumulative rng cum in
    if Float.equal v.(t) 0. then begin
      v.(t) <- 0.5 +. Rng.uniform rng;
      incr picked
    end
  done;
  let total = Wgrap_util.Stats.sum v in
  if total <= 0. then Wgrap_util.Stats.normalize v
  else begin
    for t = 0 to dim - 1 do
      v.(t) <- v.(t) /. total
    done;
    v
  end

let instance_of_preset ?(scoring = Wgrap.Scoring.Weighted_coverage) ?(seed = 7)
    p =
  let rng = Rng.create seed in
  let cum = cumulative (zipf_weights ~s:p.zipf_s ~dim:p.n_topics) in
  let nnz_cap = min p.n_topics in
  let papers =
    Array.init p.n_papers (fun _ ->
        skewed_vector rng ~cum ~dim:p.n_topics ~nnz:(nnz_cap p.paper_nnz))
  in
  let reviewers =
    Array.init p.n_reviewers (fun _ ->
        skewed_vector rng ~cum ~dim:p.n_topics ~nnz:(nnz_cap p.reviewer_nnz))
  in
  Wgrap.Instance.create_exn ~scoring ~papers ~reviewers ~delta_p:p.delta_p
    ~delta_r:p.delta_r ()

(* {2 Disk-streamed presets}

   [huge] is deliberately too big to materialize: dense rows would be
   ~9 GB of float arrays. Instead the preset is emitted straight to
   sparse TSV — one row at a time, same RNG draw order as
   {!instance_of_preset} (all papers, then all reviewers), so for any
   preset that *does* fit in memory the streamed rows are bit-identical
   to the in-memory vectors — and read back through {!Loader.fold_lines}
   in constant memory. Row format: [id '\t' topic:weight(';'topic:weight)*]
   with weights printed at full precision ("%.17g"). *)

let write_sparse_row oc id v =
  Printf.fprintf oc "%d\t" id;
  let first = ref true in
  Array.iteri
    (fun t w ->
      if not (Float.equal w 0.) then begin
        if !first then first := false else output_char oc ';';
        Printf.fprintf oc "%d:%.17g" t w
      end)
    v;
  output_char oc '\n'

let write_preset_tsv ?(seed = 7) ~dir p =
  let rng = Rng.create seed in
  let cum = cumulative (zipf_weights ~s:p.zipf_s ~dim:p.n_topics) in
  let nnz_cap = min p.n_topics in
  let papers_path = Filename.concat dir "papers.tsv" in
  let reviewers_path = Filename.concat dir "reviewers.tsv" in
  let emit path count nnz =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        for id = 0 to count - 1 do
          write_sparse_row oc id (skewed_vector rng ~cum ~dim:p.n_topics ~nnz)
        done)
  in
  emit papers_path p.n_papers (nnz_cap p.paper_nnz);
  emit reviewers_path p.n_reviewers (nnz_cap p.reviewer_nnz);
  (papers_path, reviewers_path)

let parse_sparse_row ~dim line =
  match String.split_on_char '\t' line with
  | [ id; entries ] -> (
      match int_of_string_opt id with
      | None -> Error (Printf.sprintf "bad id %S" id)
      | Some id ->
          let v = Array.make dim 0. in
          let rec fill = function
            | [] -> Ok (id, v)
            | entry :: rest -> (
                match String.index_opt entry ':' with
                | None -> Error (Printf.sprintf "bad entry %S" entry)
                | Some k -> (
                    let t = int_of_string_opt (String.sub entry 0 k) in
                    let w =
                      float_of_string_opt
                        (String.sub entry (k + 1) (String.length entry - k - 1))
                    in
                    match (t, w) with
                    | Some t, Some w when t >= 0 && t < dim ->
                        if not (Float.equal v.(t) 0.) then
                          Error (Printf.sprintf "duplicate topic %d" t)
                        else begin
                          v.(t) <- w;
                          fill rest
                        end
                    | Some t, Some _ ->
                        Error
                          (Printf.sprintf "topic %d out of range [0,%d)" t dim)
                    | _ -> Error (Printf.sprintf "bad entry %S" entry)))
          in
          fill
            (List.filter
               (fun s -> not (String.equal s ""))
               (String.split_on_char ';' entries)))
  | _ -> Error "expected 2 tab-separated fields"

let fold_preset_tsv path ~dim ~init ~f =
  match
    Loader.fold_lines path
      ~init:(Ok (1, 0, init))
      ~f:(fun acc line ->
        match acc with
        | Error _ -> acc
        | Ok (lineno, next_id, acc) ->
            if String.equal line "" then Ok (lineno + 1, next_id, acc)
            else (
              match parse_sparse_row ~dim line with
              | Error msg ->
                  Error (Printf.sprintf "%s line %d: %s" path lineno msg)
              | Ok (id, v) ->
                  if id <> next_id then
                    Error
                      (Printf.sprintf
                         "%s line %d: id %d out of order (expected %d)" path
                         lineno id next_id)
                  else Ok (lineno + 1, next_id + 1, f acc id v)))
  with
  | Ok (_, _, acc) -> Ok acc
  | Error _ as e -> e
  | exception Sys_error m -> Error m

let load_preset_tsv path ~dim =
  Result.map
    (fun rows -> Array.of_list (List.rev rows))
    (fold_preset_tsv path ~dim ~init:[] ~f:(fun acc _id v -> v :: acc))

