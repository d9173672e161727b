(* PR 5 scaling curve: the parallel solver paths (multi-chain SRA,
   JRA batch fan-out, gain-matrix priming) at 1/2/4/8 domains over the
   PR 2 T=250 workload, with result parity asserted between every job
   count. Emits machine-readable BENCH_PR5.json:

     dune exec bench/par_bench.exe -- --out BENCH_PR5.json
     dune exec bench/par_bench.exe -- --quick   (CI smoke profile: 1 vs 2)

   Speedups are relative to the jobs=1 run of the same code path, on
   the same process. [host_cores] is recorded because the curve is only
   meaningful on a machine with at least as many cores as domains: on a
   single-core host every job count timeshares one CPU and the curve is
   flat by construction (the parity columns still hold). *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Pool = Wgrap_par.Pool
open Wgrap

type shape = {
  n_papers : int;
  n_reviewers : int;
  delta_p : int;
  topics : int;
  sparsity : float;
  chains : int;
  sra_rounds : int;
  jra_problems : int;  (** batch size for the JRA fan-out stage *)
  jra_pool : int;  (** candidate pool per JRA problem (bounds the BBA tree) *)
}

let full_shape =
  { n_papers = 80; n_reviewers = 160; delta_p = 3; topics = 250;
    sparsity = 0.20; chains = 8; sra_rounds = 20; jra_problems = 32;
    jra_pool = 18 }

let quick_shape =
  { n_papers = 30; n_reviewers = 60; delta_p = 3; topics = 100;
    sparsity = 0.20; chains = 2; sra_rounds = 6; jra_problems = 16;
    jra_pool = 14 }

(* Same vector family as perf_pr2: ~sparsity*T supported topics,
   unit mass. *)
let random_vector rng ~dim ~sparsity =
  let k = max 1 (int_of_float (Float.round (sparsity *. float_of_int dim))) in
  let picked = Rng.sample_without_replacement rng k dim in
  let v = Array.make dim 0. in
  Array.iter (fun t -> v.(t) <- 0.05 +. Rng.uniform rng) picked;
  Topic_vector.normalize v

let make_instance ~seed ~shape =
  let rng = Rng.create seed in
  let vec () = random_vector rng ~dim:shape.topics ~sparsity:shape.sparsity in
  let delta_r =
    Instance.min_workload ~papers:shape.n_papers ~reviewers:shape.n_reviewers
      ~delta_p:shape.delta_p
  in
  Instance.create_exn
    ~papers:(Array.init shape.n_papers (fun _ -> vec ()))
    ~reviewers:(Array.init shape.n_reviewers (fun _ -> vec ()))
    ~delta_p:shape.delta_p ~delta_r ()

let job_counts ~quick = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ]

type sample = {
  jobs : int;
  sra_s : float;
  sra_cov : float;
  sra_same : bool;  (** assignment identical to the jobs=1 run *)
  jra_s : float;
  jra_same : bool;
  prime_s : float;
  prime_same : bool;
}

let run ~quick ~seed ~out =
  let shape = if quick then quick_shape else full_shape in
  let inst = make_instance ~seed ~shape in
  let start = Sdga.solve inst in
  let params = { Sra.default_params with max_rounds = shape.sra_rounds } in
  (* One exact JRA search per paper over a bounded candidate pool (a
     shortlist, as a journal editor would face) — full-committee BBA is
     exponential in the pool and would swamp the scaling signal. *)
  let problems =
    Array.init shape.jra_problems (fun p ->
        Jra.make
          ~paper:inst.Instance.papers.(p mod shape.n_papers)
          ~pool:(Array.sub inst.Instance.reviewers 0 shape.jra_pool)
          ~group_size:shape.delta_p ())
  in
  let key sols = Array.map (fun s -> (s.Jra.group, s.Jra.score)) sols in
  let baseline = ref None in
  let samples =
    List.map
      (fun jobs ->
        let pool = Pool.create ~jobs in
        let sra_a, sra_s =
          Timer.time (fun () ->
              Sra.refine_parallel ~params ~chains:shape.chains
                ~ctx:(Ctx.make ~seed:(seed + 1) ~pool ())
                inst start)
        in
        let jra_sols, jra_s =
          Timer.time (fun () ->
              Pool.run pool ~n:(Array.length problems) (fun i ->
                  Jra_bba.solve problems.(i)))
        in
        let gm = Gain_matrix.create inst in
        let (), prime_s = Timer.time (fun () -> Gain_matrix.prime ~pool gm) in
        let sra_cov = Assignment.coverage inst sra_a in
        let sra_same, jra_same, prime_same =
          match !baseline with
          | None ->
              baseline :=
                Some (sra_a, key jra_sols, Gain_matrix.column_denominators gm);
              (true, true, true)
          | Some (a1, k1, m1) ->
              ( Assignment.equal sra_a a1,
                key jra_sols = k1,
                Gain_matrix.column_denominators gm = m1 )
        in
        Printf.printf
          "jobs=%d  SRA %.3fs (cov %.6f, same=%b)  JRA %.3fs (same=%b)  \
           prime %.3fs (same=%b)\n%!"
          jobs sra_s sra_cov sra_same jra_s jra_same prime_s prime_same;
        { jobs; sra_s; sra_cov; sra_same; jra_s; jra_same; prime_s; prime_same })
      (job_counts ~quick)
  in
  let base = List.hd samples in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"BENCH_PR5\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"mode\": \"%s\",\n" (if quick then "quick" else "full"));
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"ocaml\": \"%s\",\n" Sys.ocaml_version);
  Buffer.add_string buf
    (Printf.sprintf "  \"parallel_supported\": %b,\n" Pool.parallel_supported);
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n" (Pool.recommended_jobs ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"shape\": {\"n_papers\": %d, \"n_reviewers\": %d, \"delta_p\": %d, \
        \"topics\": %d, \"sparsity\": %.2f, \"chains\": %d, \"sra_rounds\": \
        %d, \"jra_problems\": %d, \"jra_pool\": %d},\n"
       shape.n_papers shape.n_reviewers shape.delta_p shape.topics
       shape.sparsity shape.chains shape.sra_rounds shape.jra_problems
       shape.jra_pool);
  Buffer.add_string buf "  \"samples\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"jobs\": %d,\n\
           \     \"sra_s\": %.4f, \"sra_speedup\": %.2f, \"sra_coverage\": \
            %.9f, \"sra_identical\": %b,\n\
           \     \"jra_s\": %.4f, \"jra_speedup\": %.2f, \"jra_identical\": %b,\n\
           \     \"prime_s\": %.4f, \"prime_speedup\": %.2f, \
            \"prime_identical\": %b}%s\n"
           s.jobs s.sra_s (base.sra_s /. s.sra_s) s.sra_cov s.sra_same s.jra_s
           (base.jra_s /. s.jra_s) s.jra_same s.prime_s
           (base.prime_s /. s.prime_s) s.prime_same
           (if i = List.length samples - 1 then "" else ",")))
    samples;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" out;
  if List.exists (fun s -> not (s.sra_same && s.jra_same && s.prime_same)) samples
  then (
    prerr_endline "PARITY FAILURE: some job count changed a result";
    exit 1)

open Cmdliner

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"CI smoke profile: 1 vs 2 domains.")

let seed_arg =
  Arg.(value & opt int 2015 & info [ "seed" ] ~docv:"SEED" ~doc:"Instance seed.")

let out_arg =
  Arg.(
    value
    & opt string "BENCH_PR5.json"
    & info [ "out" ] ~docv:"PATH" ~doc:"Output JSON path.")

let cmd =
  let doc = "Domain-scaling benchmark for the parallel solver paths (PR 5)" in
  Cmd.v
    (Cmd.info "par_bench" ~doc)
    Term.(
      const (fun quick seed out -> run ~quick ~seed ~out)
      $ quick_flag $ seed_arg $ out_arg)

let () = exit (Cmd.eval cmd)
