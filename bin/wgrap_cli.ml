(* wgrap: reviewer assignment from the command line.

   Subcommands:
     generate    - write a synthetic DBLP-like corpus as TSV
     assign      - conference assignment over a TSV corpus or a synthetic
                   --preset (anytime harness, optionally crash-safe via
                   --checkpoint-dir/--resume)
     jra         - reviewer search for a single paper
     checkpoint  - inspect a checkpoint directory's snapshot and journal
     serve       - kill-safe online assignment service (WAL-backed events,
                   admission control, idle-time improvement)

   The TSV formats are documented in Dataset.Loader; the snapshot and
   journal formats in Wgrap_persist.Codec (and DESIGN.md).

   Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
   malformed corpus, or no readable checkpoint for `checkpoint`),
   3 solver degraded past tolerance (--strict) or infeasible instance. *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Report = Wgrap_util.Report
open Wgrap
open Cmdliner

let exit_usage = 1
let exit_data = 2
let exit_degraded = 3

(* All fatal paths funnel through here: one format, one stream, one
   meaningful exit code. *)
let die code fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "wgrap: %s\n" msg;
      exit code)
    fmt

let warn fmt = Printf.ksprintf (fun msg -> Printf.eprintf "wgrap: %s\n" msg) fmt

(* Numeric flags are checked before any work starts, so a bad value is a
   usage error naming the flag, never an exception from deep inside. *)
let check_flag ~flag ~min v =
  if v < min then die exit_usage "--%s must be >= %d (got %d)" flag min v

let report_degradation outcome =
  match Solver.reasons outcome with
  | [] -> ()
  | rs ->
      warn "result is degraded:";
      List.iter (fun r -> Printf.eprintf "  - %s\n" (Format.asprintf "%a" Solver.pp_reason r)) rs

(* Degraded results are accepted by default (that is the point of an
   anytime harness); --strict turns them into exit code 3. *)
let enforce_tolerance ~strict outcome =
  match outcome with
  | Solver.Infeasible msg -> die exit_degraded "infeasible: %s" msg
  | Solver.Degraded _ when strict ->
      report_degradation outcome;
      die exit_degraded "degraded result rejected (--strict)"
  | _ -> report_degradation outcome

(* {1 generate} *)

let generate ~seed ~scale ~authors_path ~papers_path =
  if not (scale > 0. && scale <= 1.) then
    die exit_usage "--scale must be in (0, 1] (got %g)" scale;
  let rng = Rng.create seed in
  let config = Dataset.Synthetic.scaled Dataset.Synthetic.default_config scale in
  let corpus, _ = Dataset.Synthetic.generate ~config ~rng () in
  Dataset.Loader.save corpus ~authors_path ~papers_path;
  Printf.printf "wrote %d authors to %s\nwrote %d papers to %s\n"
    (Array.length corpus.Dataset.Corpus.authors)
    authors_path
    (Array.length corpus.Dataset.Corpus.papers)
    papers_path

(* {1 shared corpus loading} *)

let load_corpus ~lenient authors_path papers_path =
  if lenient then begin
    match Dataset.Loader.load_lenient ~authors_path ~papers_path with
    | Ok (c, []) -> c
    | Ok (c, issues) ->
        warn "corpus loaded with %d repaired row(s):" (List.length issues);
        List.iter
          (fun i ->
            Printf.eprintf "  - %s\n" (Format.asprintf "%a" Dataset.Loader.pp_issue i))
          issues;
        c
    | Error e -> die exit_data "error loading corpus: %s" e
  end
  else
    match Dataset.Loader.load ~authors_path ~papers_path with
    | Ok c -> c
    | Error e ->
        die exit_data "error loading corpus: %s (try --lenient to salvage)" e

(* {1 assign} *)

(* --jobs N: 0 means "one per core" (Pool.recommended_jobs), and more
   jobs than that are capped there with a warning, so a request never
   starts more domains than the machine has cores (a build without the
   multicore runtime recommends 1). The job count changes only wall
   time, never the answer. *)
let pool_of_jobs jobs =
  let cores = Wgrap_par.Pool.recommended_jobs () in
  if jobs > cores then warn "--jobs %d capped at %d cores" jobs cores;
  Wgrap_par.Pool.create ~jobs:(if jobs = 0 then cores else min jobs cores)

(* {2 objective selection}

   --objective names the scoring backend (Objective.spec). The name is
   checked as soon as the flags are applied, before any work. *)

let objective_spec = function
  | "coverage" -> Objective.coverage
  | "min" -> Objective.min_coverage
  | other ->
      die exit_usage "--objective must be one of coverage, min (got %S)" other

(* {2 assign inputs}

   An instance comes from a TSV corpus (--dataset over --authors and
   --papers) or from a synthetic raw-instance preset (--preset). Each
   input also names its papers for the "weakest groups" report and
   renders the assignment TSV. *)

type assign_input = {
  inst : Instance.t;
  paper_label : int -> string;
  tsv_lines : Assignment.t -> string list;
}

let preset_input ~seed ~delta_p ~json name =
  let inst =
    match Dataset.Synthetic.preset_of_name name with
    | None ->
        die exit_usage "unknown preset %S (one of %s)" name
          (String.concat ", "
             (List.map
                (fun p -> p.Dataset.Synthetic.preset_name)
                Dataset.Synthetic.instance_presets))
    | Some p ->
        if p.Dataset.Synthetic.n_reviewers > 200_000 then
          die exit_usage
            "preset %s is disk-streamed only (Dataset.Synthetic.write_preset_tsv \
             / fold_preset_tsv); it is too large to materialize for assign"
            name
        else (
          try
            Dataset.Synthetic.instance_of_preset ~seed
              { p with Dataset.Synthetic.delta_p }
          with Invalid_argument e -> die exit_data "cannot build instance: %s" e)
  in
  if not json then
    Printf.printf "preset %s: %d papers, %d reviewers\n" name
      (Instance.n_papers inst) (Instance.n_reviewers inst);
  {
    inst;
    paper_label = Printf.sprintf "paper %d";
    tsv_lines = Assignment.to_lines;
  }

let corpus_input ~seed ~lenient ~authors_path ~papers_path ~dataset ~delta_p
    ~json =
  let corpus = load_corpus ~lenient authors_path papers_path in
  let spec =
    match Dataset.Datasets.find dataset with
    | Some s -> s
    | None ->
        die exit_usage "unknown dataset %S (one of %s)" dataset
          (String.concat ", "
             (List.map (fun s -> s.Dataset.Datasets.name) Dataset.Datasets.all))
  in
  let submissions = Dataset.Datasets.submissions corpus spec in
  let committee = Dataset.Datasets.committee corpus spec in
  if submissions = [] || committee = [] then
    die exit_data "dataset %s is empty in this corpus" dataset;
  if not json then
    Printf.printf "%s: %d submissions, %d committee members\n" dataset
      (List.length submissions) (List.length committee);
  let rng = Rng.create seed in
  let extracted =
    Dataset.Pipeline.extract ~rng ~corpus ~submissions ~committee ()
  in
  let n_p = Array.length extracted.Dataset.Pipeline.paper_vectors in
  let n_r = Array.length extracted.Dataset.Pipeline.reviewer_vectors in
  let delta_r = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p in
  let coi = Dataset.Pipeline.coi_pairs corpus extracted in
  let inst =
    match Dataset.Pipeline.instance_checked ~coi extracted ~delta_p ~delta_r with
    | Error e -> die exit_data "cannot build instance: %s" e
    | Ok (inst, []) -> inst
    | Ok (inst, quarantined) ->
        warn "%d degenerate topic vector(s) replaced:" (List.length quarantined);
        List.iter
          (fun q ->
            Printf.eprintf "  - %s\n"
              (Format.asprintf "%a" Dataset.Pipeline.pp_quarantined q))
          quarantined;
        inst
  in
  let pid p = extracted.Dataset.Pipeline.paper_ids.(p) in
  let title p = corpus.Dataset.Corpus.papers.(pid p).Dataset.Corpus.title in
  let name r =
    corpus.Dataset.Corpus.authors.(extracted.Dataset.Pipeline.reviewer_ids.(r))
      .Dataset.Corpus.name
  in
  {
    inst;
    paper_label = title;
    tsv_lines =
      (fun a ->
        Array.to_list
          (Array.mapi
             (fun p group ->
               Printf.sprintf "%d\t%s\t%s" (pid p) (title p)
                 (String.concat "; " (List.map name group)))
             a.Assignment.groups));
  }

let assign ~seed ~authors_path ~papers_path ~dataset ~delta_p ~objective
    ~json ~refine ~budget ~jobs ~candidates ~lenient ~strict ~out
    ~checkpoint_dir ~checkpoint_every ~resume ~preset =
  check_flag ~flag:"delta-p" ~min:1 delta_p;
  check_flag ~flag:"candidates" ~min:0 candidates;
  check_flag ~flag:"jobs" ~min:0 jobs;
  if resume && Option.is_none checkpoint_dir then
    die exit_usage "--resume requires --checkpoint-dir";
  let objective = objective_spec objective in
  let { inst; paper_label; tsv_lines } =
    match preset with
    | Some name -> preset_input ~seed ~delta_p ~json name
    | None ->
        corpus_input ~seed ~lenient ~authors_path ~papers_path ~dataset
          ~delta_p ~json
  in
  let pool = pool_of_jobs jobs in
  let run = { Wgrap_persist.Store.objective; candidates; refine } in
  (* Crash-safe mode: recover (and certify) any stored state before the
     store is opened, because opening fresh wipes the previous run's
     files. A rejected checkpoint (another run's, or corrupt) degrades
     to a fresh run whose outcome carries the loader's verdict as a
     Stale_checkpoint reason. *)
  let resume_from =
    match checkpoint_dir with
    | Some dir when resume -> (
        match Wgrap_persist.Store.load ~dir ~run inst with
        | Ok st ->
            warn "resuming from checkpoint (%s, %s, objective %.6f)"
              st.Checkpoint.link
              (Format.asprintf "%a" Checkpoint.pp_phase st.Checkpoint.phase)
              st.Checkpoint.score;
            Some (Ok st)
        | Error Wgrap_persist.Store.No_checkpoint ->
            warn "no checkpoint in %s; starting fresh" dir;
            None
        | Error (Wgrap_persist.Store.Invalid msg) -> Some (Error msg))
    | _ -> None
  in
  let store =
    Option.map
      (fun dir ->
        let fresh =
          (* Only a certified resume appends to the old journal; a fresh
             or degraded-to-fresh run must not inherit the previous
             run's incumbents. *)
          match resume_from with Some (Ok _) -> false | _ -> true
        in
        Wgrap_persist.Store.open_ ~cadence:checkpoint_every ~fresh ~run ~dir ())
      checkpoint_dir
  in
  let checkpoint = Option.map Wgrap_persist.Store.sink store in
  let ctx =
    Solver.Ctx.make ?budget ~seed ~objective ?checkpoint ?resume_from
      ~candidates ~pool ()
  in
  let outcome, dt = Timer.time (fun () -> Solver.cra ~refine ~ctx inst) in
  Option.iter Wgrap_persist.Store.close store;
  enforce_tolerance ~strict outcome;
  let a =
    match Solver.value outcome with Some a -> a | None -> assert false
  in
  if not json then
    Printf.printf "solved in %s (%s)\n" (Report.seconds_cell dt)
      (Solver.status outcome);
  (match Assignment.validate inst a with
  | Ok () -> ()
  | Error e -> die exit_degraded "internal error: infeasible assignment (%s)" e);
  let summary = Summary.compute ~objective inst a in
  if json then print_string (Summary.to_json summary)
  else begin
    Format.printf "%a@." Summary.pp summary;
    match Summary.worst_papers inst a ~k:3 with
    | [] -> ()
    | worst ->
        Printf.printf "weakest groups:\n";
        List.iter
          (fun (p, s) -> Printf.printf "  %.4f  %s\n" s (paper_label p))
          worst
  end;
  (* with --json on stdout, the JSON document is the stdout payload;
     the assignment TSV then needs an explicit --out file *)
  if not (json && String.equal out "-") then begin
    let oc = match out with "-" -> stdout | path -> open_out path in
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      (tsv_lines a);
    if out <> "-" then begin
      close_out oc;
      Printf.printf "assignment written to %s\n" out
    end
  end

(* {1 checkpoint} *)

let checkpoint_info ~dir =
  let snap = Wgrap_persist.Store.snapshot_path dir in
  let journal = Wgrap_persist.Store.journal_path dir in
  let have_snapshot =
    match Wgrap_persist.Snapshot.read snap with
    | Ok (fingerprint, st) ->
        Printf.printf "snapshot: run %s\n"
          (String.concat " "
             (List.map (fun (f, v) -> f ^ "=" ^ v) fingerprint));
        Printf.printf "snapshot: link=%s phase=\"%s\" stall=%d score=%.9f\n"
          st.Checkpoint.link
          (Format.asprintf "%a" Checkpoint.pp_phase st.Checkpoint.phase)
          st.Checkpoint.stall st.Checkpoint.score;
        Printf.printf "snapshot: %d papers, %d assigned pairs\n"
          (Array.length st.Checkpoint.best.Assignment.groups)
          (Assignment.size st.Checkpoint.best);
        true
    | Error Wgrap_persist.Snapshot.Missing ->
        Printf.printf "snapshot: none\n";
        false
    | Error (Wgrap_persist.Snapshot.Corrupt msg) ->
        Printf.printf "snapshot: corrupt (%s)\n" msg;
        false
  in
  let { Wgrap_persist.Journal.events; torn } =
    Wgrap_persist.Journal.replay journal
  in
  Printf.printf "journal: %d valid record(s)%s\n" (List.length events)
    (if torn then ", torn tail truncated" else "");
  (match Wgrap_persist.Journal.last_incumbent events with
  | Some s -> Printf.printf "journal: last incumbent %.9f\n" s
  | None -> Printf.printf "journal: no incumbent recorded\n");
  if not (have_snapshot || events <> []) then
    die exit_data "no usable checkpoint state in %s" dir

(* {1 jra} *)

let jra ~seed ~authors_path ~papers_path ~paper_id ~delta_p ~top_k ~budget
    ~lenient ~strict =
  check_flag ~flag:"delta-p" ~min:1 delta_p;
  check_flag ~flag:"top-k" ~min:1 top_k;
  let corpus = load_corpus ~lenient authors_path papers_path in
  if paper_id < 0 || paper_id >= Array.length corpus.Dataset.Corpus.papers then
    die exit_usage "paper id %d out of range" paper_id;
  let submission = corpus.Dataset.Corpus.papers.(paper_id) in
  let committee = Dataset.Datasets.default_reviewer_pool corpus in
  let committee =
    List.filter
      (fun a -> not (List.mem a submission.Dataset.Corpus.author_ids))
      committee
  in
  if List.length committee < delta_p then
    die exit_data "not enough candidate reviewers (%d)" (List.length committee);
  Printf.printf "searching %d candidates for %d reviewers of %S\n"
    (List.length committee) delta_p submission.Dataset.Corpus.title;
  let rng = Rng.create seed in
  let extracted =
    Dataset.Pipeline.extract ~rng ~corpus ~submissions:[ submission ] ~committee ()
  in
  let problem =
    Jra.make
      ~paper:extracted.Dataset.Pipeline.paper_vectors.(0)
      ~pool:extracted.Dataset.Pipeline.reviewer_vectors ~group_size:delta_p ()
  in
  let names_of sol =
    List.map
      (fun r ->
        corpus.Dataset.Corpus.authors.(extracted
                                         .Dataset.Pipeline.reviewer_ids.(r))
          .Dataset.Corpus.name)
      sol.Jra.group
  in
  if top_k <= 1 then begin
    (* Single group: the anytime harness (BBA -> greedy). *)
    let ctx = Solver.Ctx.make ?budget () in
    let outcome, dt = Timer.time (fun () -> Solver.jra ~ctx problem) in
    enforce_tolerance ~strict outcome;
    let sol =
      match Solver.value outcome with Some s -> s | None -> assert false
    in
    Printf.printf "solved in %s (%s)\n" (Report.seconds_cell dt)
      (Solver.status outcome);
    Printf.printf "#1 (%.4f): %s\n" sol.Jra.score
      (String.concat "; " (names_of sol))
  end
  else begin
    let deadline = Option.map Timer.deadline budget in
    let results, dt =
      Timer.time (fun () -> Jra_bba.top_k ?deadline problem ~k:top_k)
    in
    let truncated = Timer.expired_opt deadline in
    if truncated then begin
      warn "budget expired: ranking may be incomplete";
      if strict then die exit_degraded "degraded result rejected (--strict)"
    end;
    Printf.printf "BBA finished in %s%s\n" (Report.seconds_cell dt)
      (if truncated then " (degraded)" else "");
    List.iteri
      (fun i sol ->
        Printf.printf "#%d (%.4f): %s\n" (i + 1) sol.Jra.score
          (String.concat "; " (names_of sol)))
      results
  end

(* {1 cmdliner wiring} *)

let seed_arg =
  Arg.(value & opt int 2015 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let authors_arg =
  Arg.(
    value
    & opt string "authors.tsv"
    & info [ "authors" ] ~docv:"FILE" ~doc:"Authors TSV path.")

let papers_arg =
  Arg.(
    value
    & opt string "papers.tsv"
    & info [ "papers" ] ~docv:"FILE" ~doc:"Papers TSV path.")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the solver chain; degraded results are \
           reported on stderr.")

let lenient_arg =
  Arg.(
    value & flag
    & info [ "lenient" ]
        ~doc:"Salvage malformed corpus rows instead of aborting on them.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Exit with code 3 instead of accepting a degraded result.")

(* "2.5s" / "2.5" = wall-clock seconds between snapshots, "10r" = every
   10th snapshot opportunity (SRA round / SDGA stage). *)
let cadence_conv =
  let parse s =
    let body last = String.sub s 0 (String.length s - last) in
    let err =
      `Msg
        (Printf.sprintf
           "invalid cadence %S (expected e.g. \"5s\", \"2.5\" or \"10r\")" s)
    in
    if s = "" then Error err
    else
      match s.[String.length s - 1] with
      | 'r' -> (
          match int_of_string_opt (body 1) with
          | Some n when n > 0 -> Ok (Wgrap_persist.Store.Every_rounds n)
          | _ -> Error err)
      | 's' -> (
          match float_of_string_opt (body 1) with
          | Some x when x >= 0. -> Ok (Wgrap_persist.Store.Every_seconds x)
          | _ -> Error err)
      | _ -> (
          match float_of_string_opt s with
          | Some x when x >= 0. -> Ok (Wgrap_persist.Store.Every_seconds x)
          | _ -> Error err)
  in
  let print ppf = function
    | Wgrap_persist.Store.Every_seconds x -> Format.fprintf ppf "%gs" x
    | Wgrap_persist.Store.Every_rounds n -> Format.fprintf ppf "%dr" n
  in
  Arg.conv (parse, print)

let checkpoint_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Write crash-safe solver state (atomic snapshot + write-ahead \
           journal) under $(docv); resume later with $(b,--resume).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt cadence_conv (Wgrap_persist.Store.Every_seconds 5.)
    & info [ "checkpoint-every" ] ~docv:"SEC|Nr"
        ~doc:
          "Snapshot cadence: seconds (e.g. $(b,2.5s)) or every N-th \
           refinement round / SDGA stage (e.g. $(b,10r)). Improvements are \
           always snapshotted immediately; this throttles the in-between \
           snapshots. Default 5s.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Recover from the $(b,--checkpoint-dir) state: a certified \
           snapshot re-enters the solver chain where it was interrupted; a \
           corrupt or stale one degrades to a fresh run with a \
           machine-readable reason on stderr.")

(* {1 serve} *)

let serve ~dim ~delta_p ~delta_r ~objective ~state_dir ~resume ~verify
    ~socket ~event_budget_ms ~queue_limit ~p99_limit_ms ~snapshot_every
    ~max_clients =
  check_flag ~flag:"queue-limit" ~min:1 queue_limit;
  let module Server = Wgrap_serve.Server in
  let module State = Wgrap_serve.State in
  let module Durable = Wgrap_serve.Durable in
  let cfg =
    {
      (Server.default ~dim ~delta_p ~delta_r) with
      objective = objective_spec objective;
      event_budget =
        (if event_budget_ms <= 0. then None else Some (event_budget_ms /. 1000.));
      queue_limit;
      p99_limit_ms;
      snapshot_every;
    }
  in
  if verify then begin
    match state_dir with
    | None -> die exit_usage "--verify requires --state-dir"
    | Some dir -> (
        match Server.verify cfg ~dir with
        | Ok report -> print_endline report
        | Error m -> die exit_data "%s" m)
  end
  else begin
    let durable, st =
      match state_dir with
      | None ->
          warn "no --state-dir: running volatile (events are not durable)";
          ( None,
            match State.create ~dim ~delta_p ~delta_r () with
            | Ok st -> st
            | Error m -> die exit_usage "%s" m )
      | Some dir ->
          let open_durable () =
            match Durable.open_ ~dir with
            | Ok d -> Some d
            | Error m -> die exit_data "state dir %s: %s" dir m
          in
          if resume then begin
            match Server.load_state cfg ~dir with
            | Error m -> die exit_data "resume: %s" m
            | Ok (st, notes) ->
                List.iter (fun n -> warn "resume: %s" n) notes;
                (open_durable (), st)
          end
          else if
            Sys.file_exists (Durable.journal_path dir)
            || Sys.file_exists (Durable.snapshot_path dir)
          then
            die exit_usage
              "state dir %s already holds service state; use --resume, or \
               point at a fresh directory"
              dir
          else
            ( open_durable (),
              match State.create ~dim ~delta_p ~delta_r () with
              | Ok st -> st
              | Error m -> die exit_usage "%s" m )
    in
    let t = Server.of_state ?durable cfg st in
    (* survive the far end of stdout/socket closing mid-conversation:
       the event loop turns EPIPE into a clean end-of-session *)
    if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let result =
      match socket with
      | Some path -> Server.serve_socket ?max_clients t ~path
      | None -> Server.run t ~input:Unix.stdin ~output:stdout
    in
    (match durable with Some d -> Durable.close d | None -> ());
    match result with Ok () -> () | Error m -> die exit_data "serve: %s" m
  end

let generate_cmd =
  let scale =
    Arg.(
      value & opt float 0.25
      & info [ "scale" ] ~docv:"S" ~doc:"Size factor on the Table 3 corpus.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Write a synthetic DBLP-like corpus as TSV")
    Term.(
      const (fun seed scale authors_path papers_path ->
          generate ~seed ~scale ~authors_path ~papers_path)
      $ seed_arg $ scale $ authors_arg $ papers_arg)

(* shared by assign and serve: the scoring-backend selection flags *)
let objective_arg =
  Arg.(
    value & opt string "coverage"
    & info [ "objective" ] ~docv:"NAME"
        ~doc:
          "Scoring backend: $(b,coverage) (Eq. 9 weighted coverage, the \
           default) or $(b,min) (maximize the worst-off paper). \
           Non-submodular backends route greedy-seeded refinement chains \
           instead of SDGA-led ones. Under $(b,serve) it shapes only the \
           $(b,stats) report; every re-solve scores weighted coverage.")

let assign_cmd =
  let dataset =
    Arg.(
      value & opt string "DB08"
      & info [ "dataset" ] ~docv:"NAME" ~doc:"DB08, DM08, TH08, DB09, DM09 or TH09.")
  in
  let delta_p =
    Arg.(value & opt int 3 & info [ "delta-p" ] ~docv:"N" ~doc:"Reviewers per paper.")
  in
  let no_refine =
    Arg.(value & flag & info [ "no-refine" ] ~doc:"Skip stochastic refinement.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the run summary as one JSON document (coverage, fairness \
             and workload stats) instead of the textual \
             report; the assignment TSV is then only written with \
             $(b,--out FILE).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Solver domains for the gain-matrix row fills of the SDGA and \
             greedy seeds. The refinement is one sequential chain, so \
             $(docv) changes only wall time, never the assignment. $(b,0) \
             means one per core; a larger $(docv) is capped at the core \
             count with a warning (1 on builds without the multicore \
             runtime).")
  in
  let candidates =
    Arg.(
      value & opt int 0
      & info [ "candidates" ] ~docv:"K"
          ~doc:
            "Candidate pruning: solve over the top-$(docv) reviewers per \
             paper from the inverted topic index, allocating gain rows \
             lazily (O(papers x $(docv)) bytes) instead of the full papers \
             x reviewers matrix. $(b,0) (the default) keeps the exact dense \
             path.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "out" ] ~docv:"FILE" ~doc:"Assignment TSV output ('-' = stdout).")
  in
  let preset =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Solve a synthetic raw-instance preset (quick, xl) instead of a \
             TSV corpus. The huge preset is disk-streamed only and refused \
             here.")
  in
  Cmd.v
    (Cmd.info "assign" ~doc:"Conference assignment (SDGA + SRA anytime harness)")
    Term.(
      const
        (fun seed authors_path papers_path dataset delta_p objective json
             no_refine budget jobs candidates lenient strict out checkpoint_dir
             checkpoint_every resume preset ->
          assign ~seed ~authors_path ~papers_path ~dataset ~delta_p ~objective
            ~json ~refine:(not no_refine) ~budget ~jobs ~candidates ~lenient
            ~strict ~out ~checkpoint_dir ~checkpoint_every ~resume ~preset)
      $ seed_arg $ authors_arg $ papers_arg $ dataset $ delta_p $ objective_arg
      $ json $ no_refine $ budget_arg $ jobs $ candidates $ lenient_arg
      $ strict_arg $ out $ checkpoint_dir_arg $ checkpoint_every_arg $ resume_arg $ preset)

let checkpoint_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc:"Checkpoint directory.")
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Inspect a checkpoint directory (snapshot + journal)")
    Term.(const (fun dir -> checkpoint_info ~dir) $ dir)

let jra_cmd =
  let paper_id =
    Arg.(
      required
      & opt (some int) None
      & info [ "paper" ] ~docv:"ID" ~doc:"Paper id to find reviewers for.")
  in
  let delta_p =
    Arg.(value & opt int 3 & info [ "delta-p" ] ~docv:"N" ~doc:"Group size.")
  in
  let top_k =
    Arg.(value & opt int 5 & info [ "top-k" ] ~docv:"K" ~doc:"Number of groups.")
  in
  Cmd.v
    (Cmd.info "jra" ~doc:"Reviewer search for one paper (anytime harness)")
    Term.(
      const
        (fun seed authors_path papers_path paper_id delta_p top_k budget lenient
             strict ->
          jra ~seed ~authors_path ~papers_path ~paper_id ~delta_p ~top_k ~budget
            ~lenient ~strict)
      $ seed_arg $ authors_arg $ papers_arg $ paper_id $ delta_p $ top_k
      $ budget_arg $ lenient_arg $ strict_arg)

let serve_cmd =
  let dim =
    Arg.(
      required
      & opt (some int) None
      & info [ "dim" ] ~docv:"T" ~doc:"Topic-vector dimension of the instance.")
  in
  let delta_p =
    Arg.(
      value & opt int 3
      & info [ "delta-p" ] ~docv:"N" ~doc:"Reviewers per paper.")
  in
  let delta_r =
    Arg.(
      value & opt int 6
      & info [ "delta-r" ] ~docv:"N" ~doc:"Workload cap per reviewer.")
  in
  let state_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durable service state: every accepted event is journaled \
             (fsynced) under $(docv) before it is acknowledged, and periodic \
             atomic snapshots bound replay time. Without it the service is \
             volatile.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Recover the $(b,--state-dir): certified snapshot plus verified \
             journal tail, bit-identical to a fresh fold over the \
             acknowledged event prefix.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Do not serve: check that snapshot + journal-tail recovery \
             matches a from-scratch fold of the whole journal, print a \
             report, and exit (non-zero on mismatch).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket instead of serving stdin; \
             clients are served sequentially against the shared state.")
  in
  let event_budget =
    Arg.(
      value & opt float 50.
      & info [ "event-budget" ] ~docv:"MS"
          ~doc:
            "Per-event re-solve deadline in milliseconds (0 = unbounded). \
             Events that overrun answer degraded and are repaired by idle \
             improvement.")
  in
  let queue_limit =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Admission queue bound; excess events are shed with $(b,busy \
             retry-after).")
  in
  let p99_limit =
    Arg.(
      value & opt float 250.
      & info [ "p99-limit" ] ~docv:"MS"
          ~doc:
            "Latency trip wire: shed when observed p99 exceeds this while \
             the queue is half full.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 64
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Journal entries between periodic snapshots.")
  in
  let max_clients =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "With $(b,--socket): exit after serving $(docv) connections \
             (for tests and soaks).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Kill-safe online assignment service (WAL-backed event loop)")
    Term.(
      const
        (fun dim delta_p delta_r objective state_dir resume verify socket
             event_budget_ms queue_limit p99_limit_ms snapshot_every
             max_clients ->
          serve ~dim ~delta_p ~delta_r ~objective ~state_dir ~resume ~verify
            ~socket ~event_budget_ms ~queue_limit ~p99_limit_ms
            ~snapshot_every ~max_clients)
      $ dim $ delta_p $ delta_r $ objective_arg $ state_dir $ resume $ verify
      $ socket $ event_budget $ queue_limit $ p99_limit $ snapshot_every $ max_clients)

let () =
  (* Degraded runs report faults on stderr; with backtraces recorded the
     Fault reasons carry the raise site too (see Solver.describe_exn). *)
  Printexc.record_backtrace true;
  let doc = "weighted-coverage reviewer assignment (SIGMOD 2015)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "wgrap" ~doc)
          [ generate_cmd; assign_cmd; jra_cmd; checkpoint_cmd; serve_cmd ]))
