(* Journal Reviewer Assignment end to end (the Section 3 / Section 5.1
   scenario): an editor has one submission and a large pool of candidate
   reviewers known only through their publication records.

   We generate a synthetic DBLP-like corpus, learn reviewer expertise
   with the Author-Topic Model, infer the submission's topic vector by
   EM, then find the exact best reviewer group with BBA — and show how
   much faster it is than brute force on the same instance.

   Run with: dune exec examples/journal_assignment.exe *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
open Wgrap
open Wgrap_baselines

let () =
  let rng = Rng.create 7 in
  (* A modest corpus so the example runs in seconds. *)
  let config = Dataset.Synthetic.scaled Dataset.Synthetic.default_config 0.15 in
  let corpus, _truth = Dataset.Synthetic.generate ~config ~rng () in
  Printf.printf "Corpus: %d authors, %d papers\n"
    (Array.length corpus.Dataset.Corpus.authors)
    (Array.length corpus.Dataset.Corpus.papers);

  (* Candidate pool: authors with >= 3 publications in 2005-2009, as in
     the paper's JRA experiments. *)
  let pool_ids = Dataset.Datasets.default_reviewer_pool corpus in
  Printf.printf "Candidate pool: %d reviewers\n" (List.length pool_ids);

  (* The "submission" is a held-out 2009 paper; the committee is the
     pool. Extraction learns reviewer vectors from their records and the
     submission's vector from its abstract. *)
  let submission =
    corpus.Dataset.Corpus.papers.(Array.length corpus.Dataset.Corpus.papers - 1)
  in
  Printf.printf "Submission: %S (%s %d)\n" submission.Dataset.Corpus.title
    submission.Dataset.Corpus.venue submission.Dataset.Corpus.year;
  let extracted =
    Dataset.Pipeline.extract ~gibbs_iters:60 ~rng ~corpus
      ~submissions:[ submission ] ~committee:pool_ids ()
  in
  let paper_vec = extracted.Dataset.Pipeline.paper_vectors.(0) in
  let pool = extracted.Dataset.Pipeline.reviewer_vectors in

  (* Authors of the submission must not review it. *)
  let excluded =
    Array.map
      (fun author_id -> List.mem author_id submission.Dataset.Corpus.author_ids)
      extracted.Dataset.Pipeline.reviewer_ids
  in

  let delta_p = 3 in
  let problem = Jra.make ~excluded ~paper:paper_vec ~pool ~group_size:delta_p () in

  let (bba, stats), bba_time =
    Timer.time (fun () -> Jra_bba.solve_counting problem)
  in
  Printf.printf "\nBBA: best group in %s (%d nodes expanded, %d prunes)\n"
    (Wgrap_util.Report.seconds_cell bba_time)
    stats.Jra_bba.nodes stats.Jra_bba.pruned;
  let name row =
    corpus.Dataset.Corpus.authors.(extracted.Dataset.Pipeline.reviewer_ids.(row))
      .Dataset.Corpus.name
  in
  List.iter (fun r -> Printf.printf "  - %s\n" (name r)) bba.Jra.group;
  Printf.printf "  coverage = %.4f\n" bba.Jra.score;

  let bfs, bfs_time = Timer.time (fun () -> Jra_bfs.solve problem) in
  Printf.printf "\nBrute force agrees (%.6f = %.6f) but needs %s (%.0fx slower)\n"
    bfs.Jra.score bba.Jra.score
    (Wgrap_util.Report.seconds_cell bfs_time)
    (bfs_time /. Float.max bba_time 1e-9);

  (* Editors usually want alternates: the exact top-5 groups. *)
  Printf.printf "\nTop-5 groups:\n";
  List.iteri
    (fun i sol ->
      Printf.printf "  #%d (%.4f): %s\n" (i + 1) sol.Jra.score
        (String.concat ", " (List.map name sol.Jra.group)))
    (Jra_bba.top_k problem ~k:5)
