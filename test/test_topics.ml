module Rng = Wgrap_util.Rng
module Tokenizer = Topics.Tokenizer
module Vocab = Topics.Vocab
module Atm = Topics.Atm
module Em = Topics.Em_inference

(* {1 Tokenizer} *)

let test_tokenize_basic () =
  Alcotest.(check (list string)) "splits and lowercases"
    [ "weighted"; "coverage"; "reviewer"; "assignment" ]
    (Tokenizer.tokenize "Weighted Coverage, Reviewer ASSIGNMENT!")

let test_tokenize_stopwords_removed () =
  Alcotest.(check (list string)) "stopwords gone" [ "query"; "optimization" ]
    (Tokenizer.tokenize "the query and its optimization")

let test_tokenize_short_tokens_removed () =
  Alcotest.(check (list string)) "short dropped" [ "xml" ]
    (Tokenizer.tokenize "an ab xml")

let test_tokenize_hyphens_and_digits () =
  Alcotest.(check (list string)) "hyphenated survives" [ "top-k"; "sql99" ]
    (Tokenizer.tokenize "top-k sql99")

let test_tokenize_empty () =
  Alcotest.(check (list string)) "empty" [] (Tokenizer.tokenize "  ,,, !!")

let test_stopword_predicate () =
  Alcotest.(check bool) "the" true (Tokenizer.is_stopword "the");
  Alcotest.(check bool) "paper boilerplate" true (Tokenizer.is_stopword "paper");
  Alcotest.(check bool) "query" false (Tokenizer.is_stopword "query")

(* {1 Vocab} *)

let test_vocab_build_and_encode () =
  let v = Vocab.build [ [ "query"; "plan" ]; [ "plan"; "cost" ] ] in
  Alcotest.(check int) "size" 3 (Vocab.size v);
  Alcotest.(check (option int)) "first word id" (Some 0) (Vocab.id v "query");
  Alcotest.(check string) "roundtrip" "plan" (Vocab.word v (Option.get (Vocab.id v "plan")));
  Alcotest.(check (array int)) "encode drops oov"
    [| 0; 2 |]
    (Vocab.encode v [ "query"; "unknown"; "cost" ])

let test_vocab_min_count () =
  let v = Vocab.build ~min_count:2 [ [ "rare"; "common" ]; [ "common" ] ] in
  Alcotest.(check int) "only common kept" 1 (Vocab.size v);
  Alcotest.(check (option int)) "rare dropped" None (Vocab.id v "rare")

let test_vocab_of_words_dedup () =
  let v = Vocab.of_words [ "a"; "b"; "a" ] in
  Alcotest.(check int) "dedup" 2 (Vocab.size v)

(* {1 A planted two-topic corpus the samplers must recover} *)

let planted_corpus rng ~n_authors ~docs_per_author ~tokens_per_doc =
  (* Topic 0 = words 0..4, topic 1 = words 5..9; authors alternate. *)
  let n_words = 10 in
  let docs = ref [] in
  for a = 0 to n_authors - 1 do
    let base = if a mod 2 = 0 then 0 else 5 in
    for _ = 1 to docs_per_author do
      let tokens =
        Array.init tokens_per_doc (fun _ -> base + Rng.int rng 5)
      in
      docs := { Atm.tokens; authors = [| a |] } :: !docs
    done
  done;
  (Array.of_list !docs, n_words)

let test_atm_recovers_planted_topics () =
  let rng = Rng.create 99 in
  let docs, n_words = planted_corpus rng ~n_authors:6 ~docs_per_author:8 ~tokens_per_doc:30 in
  let model = Atm.train ~iters:120 ~rng ~n_authors:6 ~n_topics:2 ~n_words docs in
  (* Every author's mixture must concentrate (>80%) on one topic, and
     even/odd authors on different ones. *)
  let dominant a =
    if model.Atm.theta.(a).(0) > model.Atm.theta.(a).(1) then 0 else 1
  in
  for a = 0 to 5 do
    let t = dominant a in
    Alcotest.(check bool)
      (Printf.sprintf "author %d concentrated" a)
      true
      (model.Atm.theta.(a).(t) > 0.8)
  done;
  Alcotest.(check bool) "even and odd authors differ" true
    (dominant 0 <> dominant 1);
  Alcotest.(check bool) "consistent within parity" true
    (dominant 0 = dominant 2 && dominant 1 = dominant 3)

let test_atm_rows_normalized () =
  let rng = Rng.create 101 in
  let docs, n_words = planted_corpus rng ~n_authors:4 ~docs_per_author:3 ~tokens_per_doc:20 in
  let model = Atm.train ~iters:30 ~rng ~n_authors:4 ~n_topics:3 ~n_words docs in
  Array.iter
    (fun row ->
      Alcotest.(check (float 1e-9)) "theta row sums to 1" 1.
        (Wgrap_util.Stats.sum row))
    model.Atm.theta;
  Array.iter
    (fun row ->
      Alcotest.(check (float 1e-9)) "phi row sums to 1" 1.
        (Wgrap_util.Stats.sum row))
    model.Atm.phi

let test_atm_empty_author_uniformish () =
  (* An author with no tokens keeps the prior (uniform) mixture. *)
  let rng = Rng.create 102 in
  let docs =
    [| { Atm.tokens = [| 0; 1; 2 |]; authors = [| 0 |] } |]
  in
  let model = Atm.train ~iters:20 ~rng ~n_authors:2 ~n_topics:4 ~n_words:3 docs in
  Array.iter
    (fun v -> Alcotest.(check (float 1e-9)) "uniform" 0.25 v)
    model.Atm.theta.(1)

let test_atm_validation () =
  let rng = Rng.create 103 in
  Alcotest.check_raises "no authors"
    (Invalid_argument "Atm.train: document without authors") (fun () ->
      ignore
        (Atm.train ~rng ~n_authors:1 ~n_topics:2 ~n_words:3
           [| { Atm.tokens = [| 0 |]; authors = [||] } |]));
  Alcotest.check_raises "bad word" (Invalid_argument "Atm.train: bad word id")
    (fun () ->
      ignore
        (Atm.train ~rng ~n_authors:1 ~n_topics:2 ~n_words:3
           [| { Atm.tokens = [| 7 |]; authors = [| 0 |] } |]))

let test_atm_beats_random_perplexity () =
  let rng = Rng.create 104 in
  let docs, n_words = planted_corpus rng ~n_authors:6 ~docs_per_author:6 ~tokens_per_doc:30 in
  let model = Atm.train ~iters:80 ~rng ~n_authors:6 ~n_topics:2 ~n_words docs in
  let ppl = Atm.perplexity model docs in
  (* Random over 10 words = perplexity 10; topical structure halves the
     support, so trained should be near 5. *)
  Alcotest.(check bool) (Printf.sprintf "perplexity %.2f < 8" ppl) true (ppl < 8.)

(* LDA is ATM where document d's sole author is d: each document's
   mixture is its author's theta row. *)
let test_lda_shares_machinery () =
  let rng = Rng.create 105 in
  let docs =
    Array.init 6 (fun d ->
        let base = if d mod 2 = 0 then 0 else 5 in
        { Atm.tokens = Array.init 30 (fun _ -> base + Rng.int rng 5);
          authors = [| d |] })
  in
  let model = Atm.train ~iters:100 ~rng ~n_authors:6 ~n_topics:2 ~n_words:10 docs in
  Alcotest.(check int) "mixture per doc" 6 (Array.length model.Atm.theta);
  (* Even/odd docs land on different topics. *)
  let dominant d =
    if model.Atm.theta.(d).(0) > model.Atm.theta.(d).(1) then 0 else 1
  in
  Alcotest.(check bool) "separates docs" true (dominant 0 <> dominant 1)

(* {1 EM inference} *)

let two_topic_phi =
  [|
    [| 0.4; 0.4; 0.1; 0.05; 0.05 |];
    [| 0.05; 0.05; 0.1; 0.4; 0.4 |];
  |]

let test_em_pure_document () =
  let p = Em.infer ~phi:two_topic_phi [| 0; 1; 0; 1; 0 |] in
  Alcotest.(check bool) "topic 0 dominant" true (p.(0) > 0.9)

let test_em_mixed_document () =
  let p = Em.infer ~phi:two_topic_phi [| 0; 1; 3; 4 |] in
  Alcotest.(check bool) "balanced" true (Float.abs (p.(0) -. 0.5) < 0.1)

let test_em_normalized () =
  let p = Em.infer ~phi:two_topic_phi [| 0; 4; 2 |] in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (Wgrap_util.Stats.sum p)

let test_em_empty_doc () =
  let p = Em.infer ~phi:two_topic_phi [||] in
  Alcotest.(check (array (float 1e-12))) "uniform" [| 0.5; 0.5 |] p

let test_em_monotone_likelihood () =
  (* Run EM one iteration at a time; likelihood must never decrease. *)
  let tokens = [| 0; 0; 3; 4; 2; 1 |] in
  let prev = ref neg_infinity in
  for iters = 1 to 10 do
    let p = Em.infer ~iters ~tol:0. ~phi:two_topic_phi tokens in
    let ll = Em.log_likelihood ~phi:two_topic_phi p tokens in
    Alcotest.(check bool)
      (Printf.sprintf "ll at %d iters" iters)
      true (ll >= !prev -. 1e-9);
    prev := ll
  done

let em_beats_uniform =
  QCheck.Test.make ~name:"em likelihood >= uniform mixture likelihood"
    ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let tokens = Array.init 20 (fun _ -> Rng.int rng 5) in
      let p = Em.infer ~phi:two_topic_phi tokens in
      let uniform = [| 0.5; 0.5 |] in
      Em.log_likelihood ~phi:two_topic_phi p tokens
      >= Em.log_likelihood ~phi:two_topic_phi uniform tokens -. 1e-9)

let () =
  Alcotest.run "topics"
    [
      ( "tokenizer",
        [
          Alcotest.test_case "basic" `Quick test_tokenize_basic;
          Alcotest.test_case "stopwords" `Quick test_tokenize_stopwords_removed;
          Alcotest.test_case "short tokens" `Quick test_tokenize_short_tokens_removed;
          Alcotest.test_case "hyphens/digits" `Quick test_tokenize_hyphens_and_digits;
          Alcotest.test_case "empty" `Quick test_tokenize_empty;
          Alcotest.test_case "stopword predicate" `Quick test_stopword_predicate;
        ] );
      ( "vocab",
        [
          Alcotest.test_case "build/encode" `Quick test_vocab_build_and_encode;
          Alcotest.test_case "min count" `Quick test_vocab_min_count;
          Alcotest.test_case "of_words dedup" `Quick test_vocab_of_words_dedup;
        ] );
      ( "atm",
        [
          Alcotest.test_case "recovers planted topics" `Quick test_atm_recovers_planted_topics;
          Alcotest.test_case "rows normalized" `Quick test_atm_rows_normalized;
          Alcotest.test_case "silent author uniform" `Quick test_atm_empty_author_uniformish;
          Alcotest.test_case "validation" `Quick test_atm_validation;
          Alcotest.test_case "beats random perplexity" `Quick test_atm_beats_random_perplexity;
          Alcotest.test_case "lda separates docs" `Quick test_lda_shares_machinery;
        ] );
      ( "em",
        [
          Alcotest.test_case "pure document" `Quick test_em_pure_document;
          Alcotest.test_case "mixed document" `Quick test_em_mixed_document;
          Alcotest.test_case "normalized" `Quick test_em_normalized;
          Alcotest.test_case "empty document" `Quick test_em_empty_doc;
          Alcotest.test_case "monotone likelihood" `Quick test_em_monotone_likelihood;
          QCheck_alcotest.to_alcotest em_beats_uniform;
        ] );
    ]
