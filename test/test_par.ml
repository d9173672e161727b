(* Parallel execution tests: the Pool primitive itself, then the
   parallel-vs-sequential equivalence properties that pin every solver
   path that takes a pool (the CRA chain, JRA batches, gain-matrix
   construction) to its sequential twin bit-for-bit.

   [WGRAP_TEST_JOBS] overrides the job count used for the "parallel"
   side (default 4). On a sequential-fallback build (OCaml 4.x) the
   pools all degrade to jobs-in-name-only and the equivalence properties
   hold trivially — which is itself the property the fallback build must
   satisfy. *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Pool = Wgrap_par.Pool
open Wgrap

let test_jobs =
  match Sys.getenv_opt "WGRAP_TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some j when j >= 1 -> j | _ -> 4)
  | None -> 4

let par_pool = Pool.create ~jobs:test_jobs

let random_instance ?(dim = 6) ?coi rng ~n_p ~n_r ~dp =
  let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
  let vec () = Rng.dirichlet_sym rng ~alpha:0.4 ~dim in
  Instance.create_exn ?coi
    ~papers:(Array.init n_p (fun _ -> vec ()))
    ~reviewers:(Array.init n_r (fun _ -> vec ()))
    ~delta_p:dp ~delta_r:dr ()

(* Conflicts on most papers (up to two each) — tight enough to exercise
   the COI branches of the kernels while staying (almost always)
   stage-feasible; the rare infeasible draw is skipped by the caller. *)
let random_coi rng ~n_p ~n_r =
  List.concat
    (List.init n_p (fun p ->
         if Rng.uniform rng < 0.5 then
           let r = Rng.int rng n_r in
           if Rng.uniform rng < 0.3 then [ (p, r); (p, (r + 1) mod n_r) ]
           else [ (p, r) ]
         else []))

(* -------------------------------------------------- pool unit tests *)

let test_run_ordering () =
  List.iter
    (fun jobs ->
      let p = Pool.create ~jobs in
      let got = Pool.run p ~n:101 (fun i -> (i * i) + 1) in
      let want = Array.init 101 (fun i -> (i * i) + 1) in
      Alcotest.(check (array int))
        (Printf.sprintf "run jobs=%d index order" jobs)
        want got)
    [ 1; test_jobs; 7 ]

let test_run_empty () =
  Alcotest.(check (array int))
    "n=0 yields [||]" [||]
    (Pool.run par_pool ~n:0 (fun _ -> Alcotest.fail "task ran"))

let test_map_reduce () =
  let a = Array.init 64 (fun i -> float_of_int i /. 7.) in
  let f x = sin x +. (x *. x) in
  Alcotest.(check (array (float 0.)))
    "map matches Array.map" (Array.map f a)
    (Pool.map par_pool f a);
  (* fold order is fixed (index order), so even float accumulation is
     bit-identical to the sequential fold *)
  let seq = Array.fold_left (fun acc x -> acc +. f x) 0. a in
  let par = Pool.reduce par_pool f (fun acc y -> acc +. y) ~init:0. a in
  Alcotest.(check (float 0.)) "reduce matches sequential fold" seq par

let test_exception_propagation () =
  let boom i = Failure (Printf.sprintf "boom-%d" i) in
  (* jobs = 1 evaluates in ascending order: exactly the first failing
     index surfaces *)
  (match
     Pool.run Pool.sequential ~n:10 (fun i ->
         if i mod 4 = 3 then raise (boom i) else i)
   with
  | _ -> Alcotest.fail "sequential run should raise"
  | exception Failure msg ->
      Alcotest.(check string) "first failing index" "boom-3" msg);
  (* parallel: the lowest *evaluated* failing index — must be one of the
     failing indices, and the pool must not hang or lose the exception *)
  match
    Pool.run par_pool ~n:10 (fun i -> if i mod 4 = 3 then raise (boom i) else i)
  with
  | _ -> Alcotest.fail "parallel run should raise"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "a failing index surfaced (%s)" msg)
        true
        (List.mem msg [ "boom-3"; "boom-7" ])

let test_deadline_cancellation () =
  let d = Timer.deadline 0.0 in
  (* every task polls the already-expired deadline: Expired must
     propagate out of the pool, from any job count *)
  List.iter
    (fun pool ->
      (* catching Expired here IS the assertion: the pool propagated it *)
      (match
         Pool.run pool ~n:32 (fun i ->
             Timer.check d;
             i)
       with
      | _ -> Alcotest.fail "expired deadline should cancel the batch"
      | exception Timer.Expired -> ())
      [@wgrap.allow "swallowed-cancel"])
    [ Pool.sequential; par_pool ]

let test_jobs_clamped () =
  Alcotest.(check int) "jobs 0 clamps to 1" 1 (Pool.jobs (Pool.create ~jobs:0));
  Alcotest.(check int) "negative clamps to 1" 1
    (Pool.jobs (Pool.create ~jobs:(-3)));
  Alcotest.(check int) "sequential pool is jobs 1" 1 (Pool.jobs Pool.sequential)

let test_backend_matches_compiler () =
  let major =
    match String.split_on_char '.' Sys.ocaml_version with
    | maj :: _ -> int_of_string maj
    | [] -> 0
  in
  Alcotest.(check bool)
    "Domain backend iff OCaml >= 5" (major >= 5) Pool.parallel_supported;
  if not Pool.parallel_supported then
    Alcotest.(check int) "fallback recommends 1 job" 1 (Pool.recommended_jobs ())

(* ---------------------------------------- equivalence property tests *)

let seeds = QCheck.(int_range 0 1_000_000)

(* The whole CRA chain at jobs = N equals jobs = 1: the pool only fills
   gain rows, and the refinement is one sequential chain at every job
   count. Checked dense (k = 0) and candidate-pruned (k > 0). *)
let cra_equivalence ~name ~coi_tight =
  QCheck.Test.make ~name ~count:60 seeds (fun seed ->
      let rng = Rng.create seed in
      let n_r = 5 + Rng.int rng 5 in
      let n_p = n_r + Rng.int rng 10 in
      let coi = if coi_tight then Some (random_coi rng ~n_p ~n_r) else None in
      let inst = random_instance ?coi rng ~n_p ~n_r ~dp:2 in
      List.iter
        (fun candidates ->
          let cra pool =
            Solver.cra ~ctx:(Ctx.make ~seed:(seed + 17) ~candidates ~pool ()) inst
          in
          let seq = cra Pool.sequential and par = cra par_pool in
          match (Solver.value seq, Solver.value par) with
          | None, None -> () (* infeasible draw, at both job counts *)
          | Some a1, Some a2 ->
              (match Assignment.validate inst a2 with
              | Ok () -> ()
              | Error e ->
                  QCheck.Test.fail_reportf "k=%d: parallel result infeasible: %s"
                    candidates e);
              if Solver.status seq <> Solver.status par || not (Assignment.equal a1 a2)
              then
                QCheck.Test.fail_reportf
                  "k=%d: jobs=1 and jobs=%d disagree: %s %.9f vs %s %.9f"
                  candidates test_jobs (Solver.status seq)
                  (Assignment.coverage inst a1) (Solver.status par)
                  (Assignment.coverage inst a2)
          | _ -> QCheck.Test.fail_reportf "k=%d: feasibility differs across jobs" candidates)
        [ 0; 2 + Rng.int rng 4 ];
      true)

let jra_problems rng inst ~n_p =
  Array.init (min 6 n_p) (fun p -> ignore rng; Jra.of_instance inst ~paper:p)

let solution_pair (s : Jra.solution) = (s.Jra.group, s.Jra.score)

(* BBA fanned out over a pool: solutions and each problem's own search
   counters must match at any job count. *)
let bba_pool_equivalence =
  QCheck.Test.make ~name:"Jra_bba.solve_counting jobs=N = jobs=1 = loop"
    ~count:60 seeds (fun seed ->
      let rng = Rng.create seed in
      let n_r = 5 + Rng.int rng 5 in
      let n_p = n_r + Rng.int rng 6 in
      let inst = random_instance rng ~n_p ~n_r ~dp:2 in
      let problems = jra_problems rng inst ~n_p in
      let key ((s : Jra.solution), (c : Jra_bba.stats)) =
        (solution_pair s, c.Jra_bba.nodes, c.Jra_bba.pruned)
      in
      let run pool =
        Pool.run pool ~n:(Array.length problems) (fun i ->
            key (Jra_bba.solve_counting problems.(i)))
      in
      let loop = Array.map (fun p -> key (Jra_bba.solve_counting p)) problems in
      let seq = run Pool.sequential in
      let par = run par_pool in
      if loop <> seq then
        QCheck.Test.fail_report "Pool.run jobs=1 differs from a plain loop";
      if seq <> par then
        QCheck.Test.fail_reportf "Pool.run jobs=%d differs from jobs=1"
          test_jobs;
      true)

(* prime (sequential) and rebuild (row-parallel) must be bit-identical
   to the lazy sequential paths they shortcut. *)
let gain_matrix_equivalence =
  QCheck.Test.make ~name:"Gain_matrix prime/rebuild jobs=N = lazy" ~count:60
    seeds (fun seed ->
      let rng = Rng.create seed in
      let n_r = 5 + Rng.int rng 6 in
      let n_p = n_r + Rng.int rng 12 in
      let coi = if Rng.bool rng then Some (random_coi rng ~n_p ~n_r) else None in
      let inst = random_instance ?coi rng ~n_p ~n_r ~dp:2 in
      let lazy_gm = Gain_matrix.create inst in
      let par_gm = Gain_matrix.create inst in
      Gain_matrix.prime par_gm;
      (* Priming's observable faces are the Eq. 9 column sums (compared
         below) and the empty-group gain rows, which equal
         single-reviewer scores cell for cell. *)
      for p = 0 to n_p - 1 do
        let row gm =
          Gain_matrix.fold_row gm ~paper:p ~init:[] (fun acc ~reviewer ~gain ->
              (reviewer, gain) :: acc)
        in
        if row lazy_gm <> row par_gm then
          QCheck.Test.fail_report "primed empty-group rows differ from lazy"
      done;
      if
        Gain_matrix.column_denominators lazy_gm
        <> Gain_matrix.column_denominators par_gm
      then QCheck.Test.fail_report "primed column sums differ from lazy";
      (* now give both matrices the same groups and compare full rows:
         parallel rebuild vs lazy per-row recomputation *)
      match Sdga.solve inst with
      | exception Failure _ -> true (* infeasible draw: static caches checked *)
      | a ->
      Array.iteri
        (fun p group ->
          Gain_matrix.set_group lazy_gm ~paper:p group;
          Gain_matrix.set_group par_gm ~paper:p group)
        (Array.init n_p (Assignment.group a));
      Gain_matrix.rebuild ~pool:par_pool par_gm;
      let row gm p =
        let dst = Array.make n_r 0. in
        Gain_matrix.iter_row gm ~paper:p (fun ~reviewer ~gain ->
            dst.(reviewer) <- gain);
        dst
      in
      for p = 0 to n_p - 1 do
        if row lazy_gm p <> row par_gm p then
          QCheck.Test.fail_reportf "rebuilt gain row %d differs from lazy" p
      done;
      true)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "run index order" `Quick test_run_ordering;
          Alcotest.test_case "empty batch" `Quick test_run_empty;
          Alcotest.test_case "map/reduce" `Quick test_map_reduce;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "deadline cancellation" `Quick
            test_deadline_cancellation;
          Alcotest.test_case "jobs clamping" `Quick test_jobs_clamped;
          Alcotest.test_case "backend selection" `Quick
            test_backend_matches_compiler;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest
            (cra_equivalence ~name:"Solver.cra jobs=N = jobs=1" ~coi_tight:false);
          QCheck_alcotest.to_alcotest
            (cra_equivalence ~name:"Solver.cra jobs=N = jobs=1 (COI-tight)"
               ~coi_tight:true);
          QCheck_alcotest.to_alcotest bba_pool_equivalence;
          QCheck_alcotest.to_alcotest gain_matrix_equivalence;
        ] );
    ]
