module Rng = Wgrap_util.Rng
module Corpus = Dataset.Corpus
module Synthetic = Dataset.Synthetic
module Datasets = Dataset.Datasets
module Loader = Dataset.Loader
module Pipeline = Dataset.Pipeline
module Sv = Dataset.Seed_vocabulary

let tiny_config = Synthetic.scaled Synthetic.default_config 0.06

let tiny_corpus =
  lazy
    (let rng = Rng.create 4242 in
     Synthetic.generate ~config:tiny_config ~rng ())

(* {1 Seed vocabulary} *)

let test_seed_vocabulary_shape () =
  Alcotest.(check int) "30 topics" 30 Sv.n_topics;
  Alcotest.(check int) "labels" 30 (Array.length Sv.topic_labels);
  Array.iter
    (fun kws ->
      Alcotest.(check bool) "enough keywords" true (List.length kws >= 10))
    Sv.topic_keywords

let test_seed_words_survive_tokenizer () =
  Array.iter
    (List.iter (fun w ->
         Alcotest.(check (list string))
           (Printf.sprintf "keyword %S survives" w)
           [ w ]
           (Topics.Tokenizer.tokenize w)))
    Sv.topic_keywords;
  List.iter
    (fun w ->
      Alcotest.(check (list string)) "general word survives" [ w ]
        (Topics.Tokenizer.tokenize w))
    Sv.general_words

let test_area_topics_in_range () =
  List.iter
    (fun ts ->
      List.iter
        (fun t -> Alcotest.(check bool) "topic id" true (t >= 0 && t < Sv.n_topics))
        ts)
    [ Sv.databases_topics; Sv.data_mining_topics; Sv.theory_topics ]

(* {1 Synthetic corpus} *)

let test_corpus_valid () =
  let corpus, _ = Lazy.force tiny_corpus in
  match Corpus.validate corpus with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_corpus_sizes_match_config () =
  let corpus, _ = Lazy.force tiny_corpus in
  Alcotest.(check int) "authors"
    (3 * tiny_config.Synthetic.authors_per_area)
    (Array.length corpus.Corpus.authors);
  (* Evaluation-year counts match exactly. *)
  List.iter
    (fun (area, year, expected) ->
      let count =
        Array.to_list corpus.Corpus.papers
        |> List.filter (fun p ->
               p.Corpus.year = year
               && List.mem p.Corpus.venue (Synthetic.venues_of_area area))
        |> List.length
      in
      Alcotest.(check int)
        (Printf.sprintf "%s %d" (Corpus.area_name area) year)
        expected count)
    tiny_config.Synthetic.eval_counts

let test_ground_truth_normalized () =
  let _, truth = Lazy.force tiny_corpus in
  Array.iter
    (fun row ->
      Alcotest.(check (float 1e-6)) "topic_word row" 1. (Wgrap_util.Stats.sum row))
    truth.Synthetic.topic_word;
  Array.iter
    (fun row ->
      Alcotest.(check (float 1e-6)) "author mixture" 1. (Wgrap_util.Stats.sum row))
    truth.Synthetic.author_mixture

let test_abstracts_tokenize_nonempty () =
  let corpus, _ = Lazy.force tiny_corpus in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "abstract has tokens" true
        (List.length (Topics.Tokenizer.tokenize p.Corpus.abstract) > 10))
    corpus.Corpus.papers

let test_hindex_positive () =
  let corpus, _ = Lazy.force tiny_corpus in
  let has_pubs a = Corpus.papers_of_author corpus a.Corpus.author_id <> [] in
  Array.iter
    (fun a ->
      if has_pubs a then
        Alcotest.(check bool) "h-index >= 1" true (a.Corpus.h_index >= 1))
    corpus.Corpus.authors

let test_generation_deterministic () =
  let g seed =
    let rng = Rng.create seed in
    let c, _ = Synthetic.generate ~config:tiny_config ~rng () in
    c
  in
  let a = g 7 and b = g 7 in
  Alcotest.(check int) "same paper count"
    (Array.length a.Corpus.papers)
    (Array.length b.Corpus.papers);
  Alcotest.(check string) "same first abstract"
    a.Corpus.papers.(0).Corpus.abstract b.Corpus.papers.(0).Corpus.abstract

let test_scaled_rejects_bad_factor () =
  Alcotest.check_raises "zero" (Invalid_argument "Synthetic.scaled") (fun () ->
      ignore (Synthetic.scaled Synthetic.default_config 0.))

let test_corpus_queries () =
  let corpus, _ = Lazy.force tiny_corpus in
  let venues = Corpus.venues corpus in
  Alcotest.(check bool) "many venue-years" true (List.length venues > 10);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 venues in
  Alcotest.(check int) "venue counts partition papers"
    (Array.length corpus.Corpus.papers) total;
  (* papers_of_author inverts author_ids. *)
  let author = 3 in
  List.iter
    (fun p -> Alcotest.(check bool) "authored" true (List.mem author p.Corpus.author_ids))
    (Corpus.papers_of_author corpus author);
  (* papers_in filters both venue and year. *)
  List.iter
    (fun p ->
      Alcotest.(check string) "venue" "SIGMOD" p.Corpus.venue;
      Alcotest.(check int) "year" 2008 p.Corpus.year)
    (Corpus.papers_in corpus ~venue:"SIGMOD" ~year:2008)

(* {1 Datasets} *)

let test_dataset_specs () =
  Alcotest.(check int) "six datasets" 6 (List.length Datasets.all);
  Alcotest.(check bool) "find db08" true (Datasets.find "db08" <> None);
  Alcotest.(check bool) "find nonsense" true (Datasets.find "XX99" = None)

let test_submissions_and_committee () =
  let corpus, _ = Lazy.force tiny_corpus in
  let spec =
    { (Option.get (Datasets.find "DB08")) with Datasets.n_reviewers = 10 }
  in
  let subs = Datasets.submissions corpus spec in
  Alcotest.(check bool) "has submissions" true (List.length subs > 0);
  List.iter
    (fun p ->
      Alcotest.(check int) "year" 2008 p.Corpus.year;
      Alcotest.(check bool) "venue in area" true
        (List.mem p.Corpus.venue (Synthetic.venues_of_area Corpus.Databases)))
    subs;
  let committee = Datasets.committee corpus spec in
  Alcotest.(check int) "committee size" 10 (List.length committee);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare committee));
  List.iter
    (fun a ->
      Alcotest.(check string) "committee members from DB" "DB"
        (Corpus.area_name corpus.Corpus.authors.(a).Corpus.area))
    committee

let test_default_reviewer_pool () =
  let corpus, _ = Lazy.force tiny_corpus in
  let pool = Datasets.default_reviewer_pool corpus in
  Alcotest.(check bool) "non-trivial pool" true (List.length pool > 10);
  (* Every pool member has >= 3 papers in 2005-2009. *)
  List.iter
    (fun a ->
      let pubs =
        Corpus.papers_of_author corpus a
        |> List.filter (fun p -> p.Corpus.year >= 2005 && p.Corpus.year <= 2009)
      in
      Alcotest.(check bool) "at least 3 pubs" true (List.length pubs >= 3))
    pool

(* {1 Loader} *)

let test_loader_roundtrip () =
  let corpus, _ = Lazy.force tiny_corpus in
  let dir = Filename.temp_file "wgrap" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let authors_path = Filename.concat dir "authors.tsv" in
  let papers_path = Filename.concat dir "papers.tsv" in
  Loader.save corpus ~authors_path ~papers_path;
  (match Loader.load ~authors_path ~papers_path with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Alcotest.(check int) "authors" (Array.length corpus.Corpus.authors)
        (Array.length loaded.Corpus.authors);
      Alcotest.(check int) "papers" (Array.length corpus.Corpus.papers)
        (Array.length loaded.Corpus.papers);
      let p = corpus.Corpus.papers.(3) and q = loaded.Corpus.papers.(3) in
      Alcotest.(check string) "abstract" p.Corpus.abstract q.Corpus.abstract;
      Alcotest.(check (list int)) "authors of paper" p.Corpus.author_ids q.Corpus.author_ids;
      let a = corpus.Corpus.authors.(2) and b = loaded.Corpus.authors.(2) in
      Alcotest.(check string) "name" a.Corpus.name b.Corpus.name;
      Alcotest.(check int) "h-index" a.Corpus.h_index b.Corpus.h_index);
  Sys.remove authors_path;
  Sys.remove papers_path;
  Unix.rmdir dir

let test_loader_bad_file () =
  let path = Filename.temp_file "wgrap" ".tsv" in
  let oc = open_out path in
  output_string oc "not\tvalid\n";
  close_out oc;
  (match Loader.load ~authors_path:path ~papers_path:path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  Sys.remove path

(* {1 Loader fault paths} *)

let with_files authors_lines papers_lines f =
  let write lines =
    let path = Filename.temp_file "wgrap_fault" ".tsv" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  let authors_path = write authors_lines and papers_path = write papers_lines in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove authors_path;
      Sys.remove papers_path)
    (fun () -> f ~authors_path ~papers_path)

let good_authors = [ "0\tAda\tDB\t10"; "1\tBob\tDB\t5" ]
let good_papers = [ "0\tT0\tSIGMOD\t2008\t0;1\tjoin index" ]

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_error_mentions_line ~line result =
  match result with
  | Ok _ -> Alcotest.fail "expected a load error"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names line %d" msg line)
        true
        (contains ~sub:(Printf.sprintf "line %d" line) msg)

let test_loader_truncated_line () =
  (* Line 2 of the authors file lost its last two fields. *)
  with_files [ "0\tAda\tDB\t10"; "1\tBob" ] good_papers
    (fun ~authors_path ~papers_path ->
      check_error_mentions_line ~line:2
        (Loader.load ~authors_path ~papers_path))

let test_loader_missing_author_ref () =
  (* The paper on line 1 references author 7, which does not exist. *)
  with_files good_authors
    [ "0\tT0\tSIGMOD\t2008\t0;7\tjoin index" ]
    (fun ~authors_path ~papers_path ->
      check_error_mentions_line ~line:1
        (Loader.load ~authors_path ~papers_path))

let test_loader_crlf () =
  let crlf = List.map (fun l -> l ^ "\r") in
  with_files (crlf good_authors) (crlf good_papers)
    (fun ~authors_path ~papers_path ->
      match Loader.load ~authors_path ~papers_path with
      | Error e -> Alcotest.fail ("CRLF corpus rejected: " ^ e)
      | Ok c ->
          Alcotest.(check int) "authors" 2 (Array.length c.Corpus.authors);
          (* The trailing field must come back without the '\r'. *)
          Alcotest.(check int) "h-index" 5 c.Corpus.authors.(1).Corpus.h_index;
          Alcotest.(check string) "abstract" "join index"
            c.Corpus.papers.(0).Corpus.abstract)

let test_loader_trailing_blank_line () =
  with_files (good_authors @ [ "" ]) (good_papers @ [ "" ])
    (fun ~authors_path ~papers_path ->
      match Loader.load ~authors_path ~papers_path with
      | Error e -> Alcotest.fail ("blank trailing line rejected: " ^ e)
      | Ok c -> Alcotest.(check int) "papers" 1 (Array.length c.Corpus.papers))

let test_loader_lenient_salvage () =
  (* One malformed author, one dangling reference: lenient mode drops
     both, reports both with line numbers, and still yields a corpus. *)
  with_files
    [ "0\tAda\tDB\t10"; "1\tBob\tXX\tnope"; "2\tCyd\tDB\t7" ]
    [ "0\tT0\tSIGMOD\t2008\t0;1\tjoin index"; "1\tT1\tSIGMOD\t2008\t2\tsort scan" ]
    (fun ~authors_path ~papers_path ->
      match Loader.load_lenient ~authors_path ~papers_path with
      | Error e -> Alcotest.fail e
      | Ok (c, issues) ->
          Alcotest.(check int) "authors kept" 2 (Array.length c.Corpus.authors);
          Alcotest.(check int) "papers kept" 2 (Array.length c.Corpus.papers);
          (match Corpus.validate c with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("salvaged corpus invalid: " ^ e));
          (* Author id 2 must have been remapped to dense index 1. *)
          Alcotest.(check (list int)) "remapped refs" [ 1 ]
            c.Corpus.papers.(1).Corpus.author_ids;
          Alcotest.(check bool) "bad author row reported" true
            (List.exists
               (fun i -> i.Loader.file = "authors" && i.Loader.line = 2)
               issues);
          Alcotest.(check bool) "dangling ref reported" true
            (List.exists
               (fun i -> i.Loader.file = "papers" && i.Loader.line = 1)
               issues))

let test_loader_missing_file () =
  match
    Loader.load ~authors_path:"/nonexistent/a.tsv"
      ~papers_path:"/nonexistent/p.tsv"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing file"

(* {1 Pipeline} *)

let extracted =
  lazy
    (let corpus, _ = Lazy.force tiny_corpus in
     let rng = Rng.create 555 in
     let spec =
       { (Option.get (Datasets.find "DB08")) with Datasets.n_reviewers = 12 }
     in
     let submissions = Datasets.submissions corpus spec in
     let committee = Datasets.committee corpus spec in
     (corpus, submissions, Pipeline.extract ~gibbs_iters:40 ~rng ~corpus ~submissions ~committee ()))

let test_pipeline_shapes () =
  let _, submissions, ex = Lazy.force extracted in
  Alcotest.(check int) "paper vectors" (List.length submissions)
    (Array.length ex.Pipeline.paper_vectors);
  Alcotest.(check int) "reviewer vectors" 12 (Array.length ex.Pipeline.reviewer_vectors);
  Array.iter
    (fun v ->
      Alcotest.(check (float 1e-6)) "paper vec normalized" 1. (Wgrap_util.Stats.sum v))
    ex.Pipeline.paper_vectors;
  Array.iter
    (fun v ->
      Alcotest.(check (float 1e-6)) "reviewer vec normalized" 1. (Wgrap_util.Stats.sum v))
    ex.Pipeline.reviewer_vectors

let test_pipeline_instance () =
  let _, _, ex = Lazy.force extracted in
  let n_p = Array.length ex.Pipeline.paper_vectors in
  let dr = Wgrap.Instance.min_workload ~papers:n_p ~reviewers:12 ~delta_p:3 in
  let inst = Pipeline.instance ex ~delta_p:3 ~delta_r:dr in
  Alcotest.(check int) "papers" n_p (Wgrap.Instance.n_papers inst);
  Alcotest.(check int) "topics" 30 (Wgrap.Instance.n_topics inst)

let test_pipeline_coi () =
  let corpus, _, ex = Lazy.force extracted in
  let coi = Pipeline.coi_pairs corpus ex in
  (* Every COI pair is a genuine authorship link. *)
  List.iter
    (fun (paper_row, reviewer_row) ->
      let pid = ex.Pipeline.paper_ids.(paper_row) in
      let aid = ex.Pipeline.reviewer_ids.(reviewer_row) in
      Alcotest.(check bool) "authorship" true
        (List.mem aid corpus.Corpus.papers.(pid).Corpus.author_ids))
    coi

let test_pipeline_keywords () =
  let _, _, ex = Lazy.force extracted in
  let kws = Pipeline.topic_keywords ex ~k:6 in
  Alcotest.(check int) "30 topics" 30 (Array.length kws);
  Array.iter (fun ws -> Alcotest.(check int) "6 words" 6 (List.length ws)) kws

let test_pipeline_hindex_scaling () =
  let corpus, _, ex = Lazy.force extracted in
  let scaled = Pipeline.scale_by_h_index corpus ex in
  Array.iteri
    (fun row vec ->
      let base = ex.Pipeline.reviewer_vectors.(row) in
      let factor = vec.(0) /. (if Float.equal base.(0) 0. then 1. else base.(0)) in
      Alcotest.(check bool) "factor in [1,2]" true
        (Float.equal base.(0) 0. || (factor >= 1. -. 1e-9 && factor <= 2. +. 1e-9)))
    scaled

(* The extraction must carry enough signal that reviewers score higher
   on submissions from their own area than a topic-blind baseline. *)
let test_pipeline_signal () =
  let _, _, ex = Lazy.force extracted in
  let n_p = Array.length ex.Pipeline.paper_vectors in
  let dr = Wgrap.Instance.min_workload ~papers:n_p ~reviewers:12 ~delta_p:2 in
  let inst = Pipeline.instance ex ~delta_p:2 ~delta_r:dr in
  let sdga = Wgrap.Sdga.solve inst in
  let ratio = Wgrap.Metrics.optimality_ratio inst sdga in
  Alcotest.(check bool)
    (Printf.sprintf "sdga ratio %.3f sensible" ratio)
    true
    (ratio > 0.6)

(* {1 Streaming loader and disk-streamed presets} *)

let write_raw content =
  let path = Filename.temp_file "wgrap_stream" ".txt" in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  path

let read_lines path =
  List.rev (Loader.fold_lines path ~init:[] ~f:(fun acc l -> l :: acc))

let test_fold_lines_chunk_boundaries () =
  (* lines long enough that every one straddles the 64 KiB read chunk *)
  let lines = List.init 5 (fun i -> String.make 30_000 (Char.chr (97 + i))) in
  let path = write_raw (String.concat "\n" lines ^ "\n") in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Alcotest.(check (list string)) "chunk-straddling lines survive" lines
    (read_lines path);
  let n =
    Loader.fold_lines path ~init:0 ~f:(fun acc line ->
        acc + String.length line)
  in
  Alcotest.(check int) "byte count matches" 150_000 n

let test_fold_lines_crlf_and_unterminated () =
  let path = write_raw "alpha\r\nbeta\r\n\r\ngamma" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Alcotest.(check (list string))
    "CRLF stripped, blank kept, unterminated final line counted"
    [ "alpha"; "beta"; ""; "gamma" ]
    (read_lines path)

let test_fold_lines_empty_file () =
  let path = write_raw "" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Alcotest.(check (list string)) "empty file, no lines" []
    (read_lines path)

let test_fold_lines_matches_input_line () =
  (* the streamed reader agrees with stdlib input_line on mixed content *)
  let rng = Rng.create 97 in
  let lines =
    List.init 200 (fun _ -> String.make (Rng.int rng 200) 'x')
  in
  let path = write_raw (String.concat "\n" lines ^ "\n") in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let by_stdlib =
    let ic = open_in path in
    let acc = ref [] in
    (try
       while true do
         acc := input_line ic :: !acc
       done
     with End_of_file -> close_in ic);
    List.rev !acc
  in
  Alcotest.(check (list string)) "fold_lines = input_line" by_stdlib
    (read_lines path)

let test_sample_cumulative_matches_categorical () =
  let rng = Rng.create 13 in
  for _ = 1 to 50 do
    let dim = 1 + Rng.int rng 300 in
    let w = Array.init dim (fun _ -> Rng.uniform rng +. 1e-9) in
    let cum = Synthetic.cumulative w in
    let r1 = Rng.create 555 and r2 = Rng.create 555 in
    for _ = 1 to 100 do
      Alcotest.(check int) "same draw"
        (Rng.categorical r1 w)
        (Synthetic.sample_cumulative r2 cum)
    done
  done

let test_preset_tsv_roundtrip () =
  (* the quick preset is small enough to hold both ways: the streamed
     TSV must reproduce instance_of_preset's vectors bit for bit *)
  let p = Synthetic.quick_preset in
  let inst = Synthetic.instance_of_preset ~seed:7 p in
  let dir = Filename.temp_file "wgrap_preset" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let papers_path, reviewers_path = Synthetic.write_preset_tsv ~seed:7 ~dir p in
  Fun.protect ~finally:(fun () ->
      Sys.remove papers_path;
      Sys.remove reviewers_path;
      Unix.rmdir dir)
  @@ fun () ->
  let load path = Synthetic.load_preset_tsv path ~dim:p.Synthetic.n_topics in
  match (load papers_path, load reviewers_path) with
  | Ok papers, Ok reviewers ->
      Alcotest.(check bool) "papers bit-identical" true
        (papers = inst.Wgrap.Instance.papers);
      Alcotest.(check bool) "reviewers bit-identical" true
        (reviewers = inst.Wgrap.Instance.reviewers)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* The preset generator normalizes its draws in place: every vector must
   equal, bitwise, [Stats.normalize] applied to the same draws, replayed
   here from the generator's RNG stream (all papers, then all
   reviewers). A zero-nnz side covers the uniform fallback. *)
let test_preset_vectors_match_normalize () =
  let module Stats = Wgrap_util.Stats in
  let bits v = Array.map Int64.bits_of_float v in
  List.iter
    (fun (paper_nnz, reviewer_nnz) ->
      let p =
        {
          Synthetic.quick_preset with
          n_papers = 40;
          n_reviewers = 200;
          n_topics = 30;
          paper_nnz;
          reviewer_nnz;
        }
      in
      let seed = 11 in
      let inst = Synthetic.instance_of_preset ~seed p in
      let rng = Rng.create seed in
      let dim = p.Synthetic.n_topics in
      let cum =
        Synthetic.cumulative
          (Array.init dim (fun t -> float_of_int (t + 1) ** -.p.Synthetic.zipf_s))
      in
      let draw nnz =
        let v = Array.make dim 0. in
        let picked = ref 0 in
        while !picked < min dim nnz do
          let t = Synthetic.sample_cumulative rng cum in
          if Float.equal v.(t) 0. then begin
            v.(t) <- 0.5 +. Rng.uniform rng;
            incr picked
          end
        done;
        Stats.normalize v
      in
      let check side nnz got =
        Array.iteri
          (fun i v ->
            Alcotest.(check (array int64))
              (Printf.sprintf "%s %d (nnz %d)" side i nnz)
              (bits (draw nnz)) (bits v))
          got
      in
      check "paper" paper_nnz inst.Wgrap.Instance.papers;
      check "reviewer" reviewer_nnz inst.Wgrap.Instance.reviewers)
    [ (4, 6); (0, 3) ]

let test_fold_preset_tsv_rejects () =
  let check_error name content sub =
    let path = write_raw content in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    match Synthetic.load_preset_tsv path ~dim:4 with
    | Ok _ -> Alcotest.failf "%s: malformed file accepted" name
    | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error mentions %S (got %S)" name sub m)
          true (contains ~sub m)
  in
  check_error "no tab" "0 1:0.5\n" "line 1";
  check_error "bad weight" "0\t1:zero\n" "line 1";
  check_error "topic out of range" "0\t9:0.5\n" "line 1";
  check_error "duplicate topic" "0\t1:0.5;1:0.5\n" "line 1";
  check_error "out-of-order ids" "0\t1:0.5\n2\t1:0.5\n" "line 2"

let test_huge_preset_registered () =
  (match Synthetic.preset_of_name "huge" with
  | Some p ->
      Alcotest.(check string) "name" "huge" p.Synthetic.preset_name;
      Alcotest.(check int) "a million reviewers" 1_000_000
        p.Synthetic.n_reviewers
  | None -> Alcotest.fail "huge preset not registered");
  Alcotest.(check bool) "listed in instance_presets" true
    (List.exists
       (fun p -> p.Synthetic.preset_name = "huge")
       Synthetic.instance_presets)

let () =
  Alcotest.run "dataset"
    [
      ( "seed_vocabulary",
        [
          Alcotest.test_case "shape" `Quick test_seed_vocabulary_shape;
          Alcotest.test_case "survives tokenizer" `Quick test_seed_words_survive_tokenizer;
          Alcotest.test_case "area topics in range" `Quick test_area_topics_in_range;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "corpus valid" `Quick test_corpus_valid;
          Alcotest.test_case "sizes match config" `Quick test_corpus_sizes_match_config;
          Alcotest.test_case "ground truth normalized" `Quick test_ground_truth_normalized;
          Alcotest.test_case "abstracts tokenize" `Quick test_abstracts_tokenize_nonempty;
          Alcotest.test_case "h-index positive" `Quick test_hindex_positive;
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "scaled rejects bad factor" `Quick test_scaled_rejects_bad_factor;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "corpus queries" `Quick test_corpus_queries;
          Alcotest.test_case "specs" `Quick test_dataset_specs;
          Alcotest.test_case "submissions and committee" `Quick test_submissions_and_committee;
          Alcotest.test_case "default reviewer pool" `Quick test_default_reviewer_pool;
        ] );
      ( "loader",
        [
          Alcotest.test_case "roundtrip" `Quick test_loader_roundtrip;
          Alcotest.test_case "bad file" `Quick test_loader_bad_file;
          Alcotest.test_case "truncated line" `Quick test_loader_truncated_line;
          Alcotest.test_case "missing author ref" `Quick test_loader_missing_author_ref;
          Alcotest.test_case "crlf endings" `Quick test_loader_crlf;
          Alcotest.test_case "trailing blank line" `Quick test_loader_trailing_blank_line;
          Alcotest.test_case "lenient salvage" `Quick test_loader_lenient_salvage;
          Alcotest.test_case "missing file" `Quick test_loader_missing_file;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "chunk-boundary lines" `Quick
            test_fold_lines_chunk_boundaries;
          Alcotest.test_case "crlf and unterminated tail" `Quick
            test_fold_lines_crlf_and_unterminated;
          Alcotest.test_case "empty file" `Quick test_fold_lines_empty_file;
          Alcotest.test_case "agrees with input_line" `Quick
            test_fold_lines_matches_input_line;
          Alcotest.test_case "sample_cumulative = categorical" `Quick
            test_sample_cumulative_matches_categorical;
          Alcotest.test_case "preset tsv roundtrip bit-exact" `Quick
            test_preset_tsv_roundtrip;
          Alcotest.test_case "preset vectors = Stats.normalize of the draws" `Quick
            test_preset_vectors_match_normalize;
          Alcotest.test_case "malformed preset tsv rejected" `Quick
            test_fold_preset_tsv_rejects;
          Alcotest.test_case "huge preset registered" `Quick
            test_huge_preset_registered;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "shapes" `Quick test_pipeline_shapes;
          Alcotest.test_case "instance" `Quick test_pipeline_instance;
          Alcotest.test_case "coi" `Quick test_pipeline_coi;
          Alcotest.test_case "keywords" `Quick test_pipeline_keywords;
          Alcotest.test_case "h-index scaling" `Quick test_pipeline_hindex_scaling;
          Alcotest.test_case "signal" `Quick test_pipeline_signal;
        ] );
    ]
