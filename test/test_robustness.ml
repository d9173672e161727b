(* The anytime/fault-injection suite: every solver must respect a
   deadline without raising, and the {!Solver} harness must turn any
   corrupted input into either a labeled error or a constraint-valid
   assignment — never an exception, never an invalid result. *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Corpus = Dataset.Corpus
module Loader = Dataset.Loader
module Pipeline = Dataset.Pipeline
open Wgrap
open Wgrap_baselines

let random_vec rng ~dim = Rng.dirichlet_sym rng ~alpha:0.4 ~dim

let random_instance ?(dim = 6) ?coi rng ~n_p ~n_r ~dp =
  let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
  Instance.create_exn ?coi
    ~papers:(Array.init n_p (fun _ -> random_vec rng ~dim))
    ~reviewers:(Array.init n_r (fun _ -> random_vec rng ~dim))
    ~delta_p:dp ~delta_r:dr ()

(* {1 Deadlines cut every solver short}

   Instances are sized so the exhaustive/exact solvers would need far
   more than a second; with a 50 ms budget each must still return a
   valid (merely degraded) result. Wall-clock assertions are generous —
   they catch "ignored the deadline entirely", not scheduler jitter. *)

let budget = 0.05
let wall_limit = 5.0

let big_jra =
  lazy
    (let rng = Rng.create 7 in
     Jra.make
       ~paper:(random_vec rng ~dim:20)
       ~pool:(Array.init 150 (fun _ -> random_vec rng ~dim:20))
       ~group_size:8 ())

(* Smaller pool for the LP/CP formulations, whose model build alone is
   heavy — still hours of unbudgeted work at this size. *)
let milp_jra =
  lazy
    (let rng = Rng.create 11 in
     Jra.make
       ~paper:(random_vec rng ~dim:12)
       ~pool:(Array.init 60 (fun _ -> random_vec rng ~dim:12))
       ~group_size:6 ())

let big_cra =
  lazy
    (let rng = Rng.create 13 in
     random_instance ~dim:24 rng ~n_p:400 ~n_r:120 ~dp:3)

let check_jra_solution problem (sol : Jra.solution) =
  Alcotest.(check int)
    "group size" problem.Jra.group_size
    (List.length sol.Jra.group);
  Alcotest.(check int) "distinct members"
    (List.length sol.Jra.group)
    (List.length (List.sort_uniq compare sol.Jra.group));
  List.iter
    (fun r ->
      Alcotest.(check bool) "member in pool" true
        (r >= 0 && r < Array.length problem.Jra.pool))
    sol.Jra.group

let jra_deadline_case name problem solve =
  Alcotest.test_case name `Quick (fun () ->
      let problem = Lazy.force problem in
      let t0 = Timer.now () in
      let sol = solve ~deadline:(Timer.deadline budget) problem in
      Alcotest.(check bool) "returned promptly" true (Timer.now () -. t0 < wall_limit);
      check_jra_solution problem sol)

let outcome_to_solution name = function
  | Jra_ilp.Solved sol | Jra_ilp.Timed_out (Some sol) -> Some sol
  | Jra_ilp.Timed_out None ->
      ignore name;
      None

let cp_outcome_to_solution = function
  | Jra_cp.Solved sol | Jra_cp.Timed_out (Some sol) -> Some sol
  | Jra_cp.Timed_out None -> None

let jra_deadline_tests =
  [
    jra_deadline_case "BBA anytime" big_jra (fun ~deadline p ->
        Jra_bba.solve ~deadline p);
    jra_deadline_case "BFS anytime" big_jra (fun ~deadline p ->
        Jra_bfs.solve ~deadline p);
    Alcotest.test_case "ILP anytime" `Quick (fun () ->
        let problem = Lazy.force milp_jra in
        let t0 = Timer.now () in
        let outcome = Jra_ilp.solve ~deadline:(Timer.deadline budget) problem in
        Alcotest.(check bool) "returned promptly" true
          (Timer.now () -. t0 < wall_limit);
        match outcome_to_solution "ilp" outcome with
        | Some sol -> check_jra_solution problem sol
        | None -> () (* a labeled timeout without incumbent is allowed *));
    Alcotest.test_case "CP anytime" `Quick (fun () ->
        let problem = Lazy.force milp_jra in
        let t0 = Timer.now () in
        let outcome, _ =
          Jra_cp.solve ~deadline:(Timer.deadline budget) problem
        in
        Alcotest.(check bool) "returned promptly" true
          (Timer.now () -. t0 < wall_limit);
        match cp_outcome_to_solution outcome with
        | Some sol -> check_jra_solution problem sol
        | None -> ());
    Alcotest.test_case "harness always yields a group" `Quick (fun () ->
        let problem = Lazy.force big_jra in
        let t0 = Timer.now () in
        let outcome = Solver.jra ~ctx:(Ctx.make ~budget ()) problem in
        Alcotest.(check bool) "returned promptly" true
          (Timer.now () -. t0 < wall_limit);
        match Solver.value outcome with
        | Some sol -> check_jra_solution problem sol
        | None -> Alcotest.fail "harness returned Infeasible on a feasible problem");
  ]

let cra_deadline_case name solve =
  Alcotest.test_case name `Quick (fun () ->
      let inst = Lazy.force big_cra in
      let t0 = Timer.now () in
      let a = solve ~deadline:(Timer.deadline budget) inst in
      Alcotest.(check bool) "returned promptly" true (Timer.now () -. t0 < wall_limit);
      match Assignment.validate inst a with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("invalid degraded assignment: " ^ e))

let cra_deadline_tests =
  [
    cra_deadline_case "Greedy anytime" (fun ~deadline i ->
        Greedy.solve ~ctx:(Ctx.make ~deadline ()) i);
    cra_deadline_case "Greedy-rescan anytime" (fun ~deadline i ->
        Greedy.solve_rescan ~deadline i);
    cra_deadline_case "SDGA anytime" (fun ~deadline i ->
        Sdga.solve ~ctx:(Ctx.make ~deadline ()) i);
    cra_deadline_case "BRGG anytime" (fun ~deadline i ->
        Brgg.solve ~ctx:(Ctx.make ~deadline ()) i);
    Alcotest.test_case "Exact anytime" `Quick (fun () ->
        (* Small enough to pass the space guard is still astronomically
           beyond 50 ms of exhaustive search. *)
        let rng = Rng.create 17 in
        let small = random_instance ~dim:8 rng ~n_p:8 ~n_r:20 ~dp:3 in
        let t0 = Timer.now () in
        let a =
          Exact.solve ~max_space:1e30 ~deadline:(Timer.deadline budget) small
        in
        Alcotest.(check bool) "returned promptly" true
          (Timer.now () -. t0 < wall_limit);
        match Assignment.validate small a with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("invalid exact incumbent: " ^ e));
    cra_deadline_case "SRA anytime" (fun ~deadline i ->
        let start = Greedy.solve i in
        Sra.refine ~ctx:(Ctx.make ~deadline ~seed:3 ()) i start);
  ]

(* {1 The harness end to end} *)

let test_harness_jra_exact_small () =
  let rng = Rng.create 23 in
  let problem =
    Jra.make
      ~paper:(random_vec rng ~dim:6)
      ~pool:(Array.init 8 (fun _ -> random_vec rng ~dim:6))
      ~group_size:3 ()
  in
  match Solver.jra problem with
  | Solver.Complete sol ->
      let exact = Jra_bfs.solve problem in
      Alcotest.(check (float 1e-9)) "matches exhaustive" exact.Jra.score sol.Jra.score
  | Solver.Degraded _ -> Alcotest.fail "unbudgeted small problem degraded"
  | Solver.Infeasible e -> Alcotest.fail e

let test_harness_cra_budgeted () =
  let inst = Lazy.force big_cra in
  let t0 = Timer.now () in
  let outcome = Solver.cra ~ctx:(Ctx.make ~budget:0.2 ()) inst in
  Alcotest.(check bool) "returned promptly" true (Timer.now () -. t0 < 2. *. wall_limit);
  (match outcome with
  | Solver.Complete _ | Solver.Degraded _ -> ()
  | Solver.Infeasible e -> Alcotest.fail e);
  match Solver.value outcome with
  | Some a -> (
      match Assignment.validate inst a with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("harness output invalid: " ^ e))
  | None -> assert false

let test_harness_cra_infeasible () =
  (* Paper 0 conflicts with the whole committee: no valid assignment
     exists, and the harness must say so instead of raising or lying. *)
  let rng = Rng.create 29 in
  let coi = List.init 4 (fun r -> (0, r)) in
  let inst = random_instance ~coi rng ~n_p:4 ~n_r:4 ~dp:2 in
  match Solver.cra ~ctx:(Ctx.make ~budget:0.2 ()) inst with
  | Solver.Infeasible _ -> ()
  | Solver.Complete a | Solver.Degraded (a, _) -> (
      (* Accept only if it somehow found a valid assignment (it cannot,
         but the invariant is "never an invalid one"). *)
      match Assignment.validate inst a with
      | Ok () -> Alcotest.fail "validation accepted a COI-saturated paper"
      | Error _ -> Alcotest.fail "harness returned an invalid assignment")

let test_outcome_accessors () =
  Alcotest.(check string) "complete" "complete" (Solver.status (Solver.Complete ()));
  Alcotest.(check string) "degraded" "degraded"
    (Solver.status (Solver.Degraded ((), [ Solver.Timeout { link = "x" } ])));
  Alcotest.(check string) "infeasible" "infeasible"
    (Solver.status (Solver.Infeasible "no"));
  Alcotest.(check bool) "value none" true
    (Solver.value (Solver.Infeasible "no") = None);
  Alcotest.(check int) "reasons" 1
    (List.length (Solver.reasons (Solver.Degraded ((), [ Solver.Timeout { link = "x" } ]))))

(* {1 Fault injection: the data boundary} *)

let base_corpus =
  let authors =
    Array.init 6 (fun i ->
        {
          Corpus.author_id = i;
          name = Printf.sprintf "Author %d" i;
          area = Corpus.Databases;
          h_index = 3 + i;
        })
  in
  let papers =
    Array.init 8 (fun i ->
        {
          Corpus.paper_id = i;
          title = Printf.sprintf "Paper %d" i;
          venue = "SIGMOD";
          year = 2008;
          author_ids = [ i mod 6; (i + 1) mod 6 ];
          abstract = "query index join optimizer";
        })
  in
  { Corpus.authors; papers }

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let base_lines =
  lazy
    (let authors_path = Filename.temp_file "chaos_authors" ".tsv" in
     let papers_path = Filename.temp_file "chaos_papers" ".tsv" in
     Loader.save base_corpus ~authors_path ~papers_path;
     let lines = (read_lines authors_path, read_lines papers_path) in
     Sys.remove authors_path;
     Sys.remove papers_path;
     lines)

(* Under any single TSV corruption: strict load returns Ok or Error
   (no exception), lenient load additionally yields a corpus that
   passes {!Corpus.validate} whenever it yields one at all. *)
let chaos_tsv_test =
  QCheck.Test.make ~name:"loader survives corrupted TSV" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      (* Independent streams per concern ({!Rng.split}): the fault choice
         and the corruption bytes no longer share one sequential stream,
         so adding a draw to either cannot reshuffle the other across
         the whole regression corpus. *)
      let streams = Rng.split (Rng.create seed) 2 in
      let pick_rng = streams.(0) and corrupt_rng = streams.(1) in
      let author_lines, paper_lines = Lazy.force base_lines in
      let fault =
        List.nth Chaos.tsv_faults
          (Rng.int pick_rng (List.length Chaos.tsv_faults))
      in
      let corrupt_authors = Rng.bool pick_rng in
      let author_lines =
        if corrupt_authors then
          Chaos.corrupt_lines ~rng:corrupt_rng fault author_lines
        else author_lines
      in
      let paper_lines =
        if corrupt_authors then paper_lines
        else Chaos.corrupt_lines ~rng:corrupt_rng fault paper_lines
      in
      let authors_path = Filename.temp_file "chaos_authors" ".tsv" in
      let papers_path = Filename.temp_file "chaos_papers" ".tsv" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove authors_path;
          Sys.remove papers_path)
        (fun () ->
          Chaos.write_lines authors_path author_lines;
          Chaos.write_lines papers_path paper_lines;
          (match Loader.load ~authors_path ~papers_path with
          | Ok corpus -> Corpus.validate corpus = Ok ()
          | Error msg -> String.length msg > 0)
          &&
          match Loader.load_lenient ~authors_path ~papers_path with
          | Ok (corpus, _issues) -> Corpus.validate corpus = Ok ()
          | Error msg -> String.length msg > 0))

(* Under any single vector corruption: the sanitizing pipeline yields a
   usable instance and the harness yields a valid assignment on it. *)
let dummy_extracted rng ~n_p ~n_r ~dim =
  let vocab = Topics.Vocab.build ~min_count:1 [] in
  let reviewer_vectors = Array.init n_r (fun _ -> random_vec rng ~dim) in
  let model =
    {
      Topics.Atm.theta = Array.map Array.copy reviewer_vectors;
      phi = Array.init dim (fun _ -> random_vec rng ~dim:3);
      n_topics = dim;
      n_words = 3;
      log_likelihood = 0.;
    }
  in
  {
    Pipeline.paper_vectors = Array.init n_p (fun _ -> random_vec rng ~dim);
    reviewer_vectors;
    paper_ids = Array.init n_p Fun.id;
    reviewer_ids = Array.init n_r Fun.id;
    vocab;
    model;
  }

let chaos_vector_test =
  QCheck.Test.make ~name:"pipeline quarantines poisoned vectors" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      (* Split streams: data generation, fault choice and poisoning each
         draw independently. *)
      let streams = Rng.split (Rng.create seed) 3 in
      let gen_rng = streams.(0)
      and pick_rng = streams.(1)
      and poison_rng = streams.(2) in
      let n_p = 8 + Rng.int gen_rng 8 and n_r = 6 + Rng.int gen_rng 4 in
      let extracted = dummy_extracted gen_rng ~n_p ~n_r ~dim:10 in
      let fault =
        List.nth Chaos.vector_faults
          (Rng.int pick_rng (List.length Chaos.vector_faults))
      in
      let extracted =
        if Rng.bool pick_rng then
          { extracted with
            Pipeline.paper_vectors =
              Chaos.poison ~rng:poison_rng fault extracted.Pipeline.paper_vectors }
        else
          { extracted with
            Pipeline.reviewer_vectors =
              Chaos.poison ~rng:poison_rng fault
                extracted.Pipeline.reviewer_vectors }
      in
      let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:2 in
      match Pipeline.instance_checked extracted ~delta_p:2 ~delta_r:dr with
      | Error msg -> String.length msg > 0
      | Ok (inst, quarantined) -> (
          quarantined <> []
          &&
          match Solver.value (Solver.cra ~ctx:(Ctx.make ~budget:0.5 ()) inst) with
          | Some a -> Assignment.validate inst a = Ok ()
          | None -> true))

(* Under arbitrarily dense conflict structure: a labeled [Infeasible]
   or a valid assignment, nothing else. *)
let chaos_coi_test =
  QCheck.Test.make ~name:"harness survives COI-dense instances" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      (* Split streams: shape, conflict structure and topic vectors. *)
      let streams = Rng.split (Rng.create seed) 3 in
      let shape_rng = streams.(0)
      and coi_rng = streams.(1)
      and inst_rng = streams.(2) in
      let n_r = 6 + Rng.int shape_rng 6 in
      let n_p = n_r + Rng.int shape_rng 10 in
      let density = 0.3 +. Rng.float shape_rng 0.65 in
      let coi =
        Chaos.dense_coi ~rng:coi_rng ~n_papers:n_p ~n_reviewers:n_r ~density
      in
      let inst = random_instance ~coi inst_rng ~n_p ~n_r ~dp:2 in
      match Solver.cra ~ctx:(Ctx.make ~budget:0.3 ()) inst with
      | Solver.Infeasible msg -> String.length msg > 0
      | Solver.Complete a | Solver.Degraded (a, _) ->
          Assignment.validate inst a = Ok ())

(* Byte-level faults against the TSV boundary: whatever a torn write or
   bit flip leaves on disk, the loader answers Ok or Error — never an
   exception. *)
let chaos_tsv_bytes_test =
  QCheck.Test.make ~name:"loader survives byte-corrupted TSV files" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      (* Split streams: fault/victim choice vs corruption bytes. *)
      let streams = Rng.split (Rng.create seed) 2 in
      let pick_rng = streams.(0) and corrupt_rng = streams.(1) in
      let author_lines, paper_lines = Lazy.force base_lines in
      let authors_path = Filename.temp_file "chaos_authors" ".tsv" in
      let papers_path = Filename.temp_file "chaos_papers" ".tsv" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove authors_path;
          Sys.remove papers_path)
        (fun () ->
          Chaos.write_lines authors_path author_lines;
          Chaos.write_lines papers_path paper_lines;
          let fault =
            List.nth Chaos.file_faults
              (Rng.int pick_rng (List.length Chaos.file_faults))
          in
          let victim = if Rng.bool pick_rng then authors_path else papers_path in
          Chaos.corrupt_file ~rng:corrupt_rng fault victim;
          match Loader.load ~authors_path ~papers_path with
          | Ok corpus -> Corpus.validate corpus = Ok ()
          | Error msg -> String.length msg > 0))

(* {1 Kill/resume: the durable-state boundary}

   One reference run records its full checkpoint traffic — every journal
   event and every offered snapshot, in emission order. Each scenario
   then simulates a crash: cut the trace at a random kill point, lay the
   surviving snapshot/journal bytes on disk, optionally corrupt either
   file with a random byte-level fault, and restart. The restarted run
   must either resume from a checkpoint that passed certification or
   fall back fresh with a machine-readable [Stale_checkpoint] reason —
   and in every case produce a constraint-valid assignment scoring no
   worse than the journal's last surviving incumbent. *)

module Codec = Wgrap_persist.Codec
module Journal = Wgrap_persist.Journal
module Store = Wgrap_persist.Store

type trace_item = Ev of Checkpoint.event | Snap of Checkpoint.state

let kill_seed = 31

let kill_instance =
  lazy (random_instance (Rng.create kill_seed) ~n_p:10 ~n_r:8 ~dp:3)

let kill_trace =
  lazy
    (let inst = Lazy.force kill_instance in
     let items = ref [] in
     let sink =
       {
         Checkpoint.on_event = (fun e -> items := Ev e :: !items);
         offer = (fun take -> items := Snap (take ()) :: !items);
       }
     in
     let final =
       match Solver.value (Solver.cra ~ctx:(Ctx.make ~seed:kill_seed ~checkpoint:sink ()) inst) with
       | Some a -> Assignment.coverage inst a
       | None -> Alcotest.fail "reference run infeasible"
     in
     (Array.of_list (List.rev !items), final))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

(* Fresh per-call suffixes for temp dirs, drawn from the project Rng so
   the suite stays free of stdlib Random (pid disambiguates processes,
   the counter disambiguates calls within one). *)
let temp_dir_rng = Rng.create (Unix.getpid ())

let with_temp_store_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wgrap_kill_%d_%d" (Unix.getpid ())
         (Rng.int temp_dir_rng 0x3FFFFFFF))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let kill_resume_test =
  let run =
    { Store.objective = Objective.coverage; candidates = 0; refine = true }
  in
  QCheck.Test.make
    ~name:"kill/resume: never invalid, never below journaled incumbent"
    ~count:120
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let inst = Lazy.force kill_instance in
      let trace, uninterrupted = Lazy.force kill_trace in
      (* Split streams: the kill point and the byte-level corruption draw
         independently, so the kill-point distribution is stable however
         many bytes a fault consumes. *)
      let streams = Rng.split (Rng.create seed) 2 in
      let kill_rng = streams.(0) and rng = streams.(1) in
      let kill = 1 + Rng.int kill_rng (Array.length trace) in
      let snapshot = ref None and events = ref [] in
      for i = 0 to kill - 1 do
        match trace.(i) with
        | Snap st -> snapshot := Some st
        | Ev e -> events := e :: !events
      done;
      let events = List.rev !events in
      with_temp_store_dir (fun dir ->
          let pick_fault () =
            List.nth Chaos.file_faults (Rng.int rng (List.length Chaos.file_faults))
          in
          let maybe_corrupt bytes =
            if Rng.int rng 3 = 0 then Chaos.corrupt_bytes ~rng (pick_fault ()) bytes
            else bytes
          in
          Option.iter
            (fun st ->
              write_file (Store.snapshot_path dir)
                (maybe_corrupt (Codec.encode_state ~fingerprint:(Store.fingerprint run) st)))
            !snapshot;
          if events <> [] then
            write_file (Store.journal_path dir)
              (maybe_corrupt
                 (String.concat ""
                    (List.map (fun e -> Codec.journal_line e ^ "\n") events)));
          (* The floor: whatever incumbent survives in the (possibly
             corrupted, tail-truncated) journal. *)
          let floor =
            match
              Journal.last_incumbent
                (Journal.replay (Store.journal_path dir)).Journal.events
            with
            | Some f -> f
            | None -> Float.neg_infinity
          in
          let load_result = Store.load ~dir ~run inst in
          let outcome =
            match load_result with
            | Ok st -> Solver.cra ~ctx:(Ctx.make ~seed:kill_seed ~resume_from:(Ok st) ()) inst
            | Error Store.No_checkpoint -> Solver.cra ~ctx:(Ctx.make ~seed:kill_seed ()) inst
            | Error (Store.Invalid msg) ->
                Solver.cra ~ctx:(Ctx.make ~seed:kill_seed ~resume_from:(Error msg) ()) inst
          in
          match outcome with
          | Solver.Infeasible _ -> false
          | Solver.Complete a | Solver.Degraded (a, _) ->
              let score = Assignment.coverage inst a in
              Assignment.validate inst a = Ok ()
              && score >= floor -. 1e-9
              && score <= uninterrupted +. 1e-9
              && (match load_result with
                 | Error (Store.Invalid _) ->
                     (* A rejected checkpoint must be reported, and the
                        fresh same-seed run re-earns the uninterrupted
                        objective exactly. *)
                     List.exists
                       (function Solver.Stale_checkpoint _ -> true | _ -> false)
                       (Solver.reasons outcome)
                     && Float.abs (score -. uninterrupted) <= 1e-9
                 | _ -> true)))

(* {1 CLI usage errors}

   A numeric flag outside its range must be a usage error (exit 1, one
   line naming the flag) before any work starts — never an uncaught
   exception from the layer that finally rejects it. *)

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec scan i = i + lb <= ls && (String.sub s i lb = sub || scan (i + 1)) in
  scan 0

let test_cli_bad_numeric_flags () =
  List.iter
    (fun (flag, args) ->
      let code, out = Cli.run args in
      Alcotest.(check int) (flag ^ ": exit code") 1 code;
      Alcotest.(check bool) (flag ^ ": no internal error") false
        (contains ~sub:"internal error" out);
      Alcotest.(check bool) (flag ^ ": names the flag") true
        (contains ~sub:flag out))
    (let assign = [ "assign"; "--preset"; "quick" ] in
     [
       ("--candidates", assign @ [ "--candidates=-3" ]);
       ("--jobs", assign @ [ "--jobs=-2" ]);
       ("--queue-limit", [ "serve"; "--dim"; "4"; "--queue-limit=0" ]);
       ("--delta-p", assign @ [ "--delta-p"; "0" ]);
       ("--delta-p", [ "jra"; "--paper"; "3"; "--delta-p"; "0" ]);
       ("--scale", [ "generate"; "--scale"; "0" ]);
       ("--scale", [ "generate"; "--scale=-1" ]);
       ("--top-k", [ "jra"; "--paper"; "3"; "--top-k=0" ]);
       ("--objective", assign @ [ "--objective"; "owa" ]);
     ])

(* The objective vocabulary is coverage and min: any other name is a
   usage error naming both, before any work, under assign and serve
   alike, and the tree-smoothing flags of the deleted taxonomy backend
   are unknown options (cmdliner's exit 124). *)
let test_cli_objective_vocabulary () =
  List.iter
    (fun args ->
      let label = String.concat " " args in
      let code, out = Cli.run args in
      Alcotest.(check int) (label ^ ": exit code\n" ^ out) 1 code;
      Alcotest.(check bool) (label ^ ": names the choices\n" ^ out) true
        (contains ~sub:"one of coverage, min (got \"taxonomy\")" out))
    [
      [ "assign"; "--preset"; "quick"; "--objective"; "taxonomy" ];
      [ "serve"; "--dim"; "4"; "--objective"; "taxonomy" ];
    ];
  List.iter
    (fun args ->
      let label = String.concat " " args in
      let code, out = Cli.run args in
      Alcotest.(check int) (label ^ ": exit code\n" ^ out) 124 code)
    [
      [ "assign"; "--preset"; "quick"; "--taxonomy-tsv"; "tree.tsv" ];
      [ "serve"; "--dim"; "4"; "--taxonomy-tsv"; "tree.tsv" ];
    ]

(* --delta-p reaches the preset instance: every output line names
   exactly that many reviewers, and a group size the preset's capacity
   cannot cover is a data error, not a crash. *)
let test_cli_preset_delta_p () =
  let out = Filename.temp_file "wgrap_preset" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code, log =
        Cli.run
          [ "assign"; "--preset"; "quick"; "--candidates"; "16";
            "--no-refine"; "--delta-p"; "2"; "--out"; out ]
      in
      Alcotest.(check int) ("exit code\n" ^ log) 0 code;
      let lines =
        In_channel.with_open_text out In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one line per paper" 300 (List.length lines);
      List.iter
        (fun line ->
          match String.split_on_char '\t' line with
          | [ _; group ] ->
              Alcotest.(check int) ("reviewers on " ^ line) 2
                (List.length (String.split_on_char ';' group))
          | _ -> Alcotest.failf "malformed line %S" line)
        lines);
  let code, log =
    Cli.run [ "assign"; "--preset"; "quick"; "--delta-p"; "31" ]
  in
  Alcotest.(check int) "over capacity: exit code" 2 code;
  Alcotest.(check bool) "over capacity: no internal error" false
    (contains ~sub:"internal error" log)

(* A preset solve is one [Solver.cra] call: two same-seed runs write
   byte-identical TSVs, and both equal the in-process chain on the same
   instance under the context the CLI builds (coverage objective, one
   job, no deadline). *)
let test_cli_preset_matches_solver () =
  let args out =
    [ "assign"; "--preset"; "quick"; "--candidates"; "16"; "--seed"; "2015";
      "--out"; out ]
  in
  let run () =
    let out = Filename.temp_file "wgrap_preset" ".tsv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        let code, log = Cli.run (args out) in
        Alcotest.(check int) ("exit code\n" ^ log) 0 code;
        In_channel.with_open_bin out In_channel.input_all)
  in
  let first = run () in
  Alcotest.(check string) "same seed, same bytes" first (run ());
  let preset = Option.get (Dataset.Synthetic.preset_of_name "quick") in
  let inst = Dataset.Synthetic.instance_of_preset ~seed:2015 preset in
  let ctx =
    Ctx.make ~seed:2015 ~objective:Objective.coverage ~candidates:16
      ~pool:(Wgrap_par.Pool.create ~jobs:1) ()
  in
  match Solver.cra ~ctx inst with
  | Solver.Complete a ->
      Alcotest.(check string) "CLI = in-process Solver.cra"
        (String.concat "" (List.map (fun l -> l ^ "\n") (Assignment.to_lines a)))
        first
  | o -> Alcotest.failf "in-process solve not complete (%s)" (Solver.status o)

(* --jobs changes only wall time: the quick preset writes the same TSV
   at --jobs 1 and --jobs 2, and a job count above the core count is
   capped there with one warning and writes that TSV too. *)
let preset_tsv jobs =
  let out = Filename.temp_file "wgrap_jobs" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code, log =
        Cli.run
          [ "assign"; "--preset"; "quick"; "--candidates"; "16"; "--seed"; "2015";
            "--jobs"; string_of_int jobs; "--out"; out ]
      in
      Alcotest.(check int) ("exit code\n" ^ log) 0 code;
      (log, In_channel.with_open_bin out In_channel.input_all))

let jobs1_tsv = lazy (snd (preset_tsv 1))

let test_cli_jobs_invariant () =
  Alcotest.(check string) "--jobs 2 TSV = --jobs 1 TSV" (Lazy.force jobs1_tsv)
    (snd (preset_tsv 2))

let test_cli_jobs_capped () =
  let cores = Wgrap_par.Pool.recommended_jobs () in
  let log, tsv = preset_tsv (cores + 1) in
  let warning = Printf.sprintf "wgrap: --jobs %d capped at %d cores" (cores + 1) cores in
  Alcotest.(check int) ("one cap warning\n" ^ log) 1
    (List.length (List.filter (String.equal warning) (String.split_on_char '\n' log)));
  Alcotest.(check string) "capped TSV = --jobs 1 TSV" (Lazy.force jobs1_tsv) tsv

(* A standing parity oracle for the pruned path: the quick preset's
   k = 16 TSVs under both objectives and two seeds, pinned by MD5. A
   change meant to keep outputs (a performance change) must leave these
   digests alone; a change that moves an assignment on purpose updates
   them and says why. *)
let pinned_pruned_tsvs =
  [
    ("coverage", 2015, "fa4f84c503cfec056b5ec594f2169458");
    ("coverage", 7, "a86fd47aa3b9d080b13ba4f205416157");
    ("min", 2015, "b42dce9982ca67130c9e013d4aab6019");
    ("min", 7, "d55b452753ca7012cc4a3d32a3b1c3b2");
  ]

let test_cli_pruned_digests () =
  List.iter
    (fun (objective, seed, digest) ->
      let out = Filename.temp_file "wgrap_pinned" ".tsv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let code, log =
            Cli.run
              [ "assign"; "--preset"; "quick"; "--candidates"; "16"; "--objective";
                objective; "--seed"; string_of_int seed; "--out"; out ]
          in
          let label = Printf.sprintf "--objective %s --seed %d" objective seed in
          Alcotest.(check int) (label ^ ": exit code\n" ^ log) 0 code;
          Alcotest.(check string) (label ^ ": TSV digest") digest
            (Digest.to_hex (Digest.file out))))
    pinned_pruned_tsvs

let () =
  Alcotest.run "robustness"
    [
      ("jra deadlines", jra_deadline_tests);
      ("cra deadlines", cra_deadline_tests);
      ( "harness",
        [
          Alcotest.test_case "exact on small" `Quick test_harness_jra_exact_small;
          Alcotest.test_case "budgeted CRA" `Quick test_harness_cra_budgeted;
          Alcotest.test_case "COI-saturated paper" `Quick test_harness_cra_infeasible;
          Alcotest.test_case "outcome accessors" `Quick test_outcome_accessors;
        ] );
      ( "chaos",
        [
          QCheck_alcotest.to_alcotest chaos_tsv_test;
          QCheck_alcotest.to_alcotest chaos_tsv_bytes_test;
          QCheck_alcotest.to_alcotest chaos_vector_test;
          QCheck_alcotest.to_alcotest chaos_coi_test;
        ] );
      ("kill/resume", [ QCheck_alcotest.to_alcotest kill_resume_test ]);
      ( "cli",
        [
          Alcotest.test_case "bad numeric flags exit 1" `Quick
            test_cli_bad_numeric_flags;
          Alcotest.test_case "--delta-p reaches the preset" `Quick
            test_cli_preset_delta_p;
          Alcotest.test_case "preset TSV = in-process Solver.cra" `Quick
            test_cli_preset_matches_solver;
          Alcotest.test_case "--jobs 2 TSV = --jobs 1 TSV" `Quick
            test_cli_jobs_invariant;
          Alcotest.test_case "--jobs above the cores is capped" `Quick
            test_cli_jobs_capped;
          Alcotest.test_case "quick k=16 TSVs pinned by MD5" `Quick
            test_cli_pruned_digests;
          Alcotest.test_case "--objective is coverage or min" `Quick
            test_cli_objective_vocabulary;
        ] );
    ]
