(* Bid-aware assignment and chair-facing reports.

   The paper's conclusion sketches an extension where assignment quality
   blends topic coverage with reviewer bids. This example builds a
   conference instance, synthesizes sparse bids correlated with topical
   fit, sweeps the blending weight lambda, and prints the program-chair
   summary (workload balance, coverage distribution, weakest groups)
   for the chosen operating point.

   Run with: dune exec examples/bids_and_reports.exe *)

module Rng = Wgrap_util.Rng
open Wgrap

let () =
  let rng = Rng.create 99 in
  let dim = 20 and n_p = 80 and n_r = 18 in
  let dp = 3 in
  let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
  let vec () = Rng.dirichlet_sym rng ~alpha:0.3 ~dim in
  let inst =
    Instance.create_exn
      ~papers:(Array.init n_p (fun _ -> vec ()))
      ~reviewers:(Array.init n_r (fun _ -> vec ()))
      ~delta_p:dp ~delta_r:dr ()
  in
  let bids = Bids.random ~rng inst in

  Printf.printf "lambda  coverage  mean-bid  (lambda=1 is plain WGRAP)\n";
  let candidates =
    List.map
      (fun lambda ->
        let objective = Bids.spec ~lambda bids in
        let start = Sdga.solve ~ctx:(Ctx.make ~objective ()) inst in
        let a = Sra.refine ~ctx:(Ctx.make ~rng ~objective ()) inst start in
        Printf.printf "%.2f    %8.3f  %8.3f\n" lambda
          (Assignment.coverage inst a)
          (Bids.bid_satisfaction inst bids a);
        (lambda, a))
      [ 1.0; 0.8; 0.6; 0.4 ]
  in

  (* Operate at lambda = 0.8: most of the coverage, much happier
     reviewers. Print what a chair would check before sign-off. *)
  let _, chosen = List.nth candidates 1 in
  Printf.printf "\n--- chair report at lambda = 0.8 ---\n";
  Format.printf "%a@." Summary.pp (Summary.compute inst chosen);
  Printf.printf "\ncoverage histogram:\n";
  Array.iter
    (fun (lo, hi, count) ->
      Printf.printf "  %.1f-%.1f |%s %d\n" lo hi (String.make count '#') count)
    (Summary.coverage_histogram ~buckets:5 inst chosen);
  Printf.printf "\nweakest groups (candidates for manual fixes):\n";
  List.iter
    (fun (p, s) -> Printf.printf "  paper %2d: coverage %.3f\n" p s)
    (Summary.worst_papers inst chosen ~k:5)
