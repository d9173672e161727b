(* wgrap_lint — static analysis for the wgrap contracts.

   Usage: wgrap_lint [options] PATH...

   Each PATH is an .ml/.mli file or a directory walked recursively.
   Findings print as "file:line: [rule] message"; the exit status is 0
   when clean, 1 when any finding (including a parse failure) is
   reported, 2 on usage errors.

   The run has two phases. Phase 1 summarizes every implementation —
   per top-level value: direct effects (mutates-global, mutates-argument
   by parameter index, performs-IO, reads-nondeterministic-source,
   polls-deadline, may-raise-Expired), call edges with argument roots,
   and Pool spawn sites. Phase 2 stitches the summaries into a call
   graph, propagates effects to a fixpoint, and runs the
   interprocedural rules on top of the per-expression ones.

   Expression rules (suppress per-expression with [@wgrap.allow "rule"],
   per-val with [@@wgrap.allow "rule"], per-file with
   [@@@wgrap.allow "rule"]):
     wall-clock    no Unix.gettimeofday/Unix.time/Sys.time outside Timer
     raw-random    no stdlib Random outside Rng
     silent-catch  no catch-all handler that neither re-raises nor
                   records via Solver.describe_exn
     poly-compare  no polymorphic compare/min/max on float operands
     float-eq      no (=)/(<>) on float expressions
     unsafe-array  no Array/Bytes/String.unsafe_* outside the kernels
     unbounded-retry
                   no recursive retry loop without a visible bound, and
                   no raw blocking read in lib/serve outside Transport
     dense-alloc   no O(papers x reviewers) allocation outside the
                   Gain_matrix dense backing and the bench baseline
     swallowed-cancel
                   no handler that absorbs Timer.Expired without
                   re-raising outside the designated backstop modules
     direct-scoring
                   no raw Scoring.* kernel call or Instance.pair_score
                   in the solver-chain modules; scores flow through the
                   bound Objective so --objective backends govern

   Interprocedural rules (phase 2):
     deadline      solver entry points accept ?deadline and reach a
                   Timer.check*/forwarded deadline transitively
     domain-race   no Pool closure whose transitive effects write
                   coordinator-shared state
     nondet-reach  no solver entry point transitively reading a
                   nondeterministic source

   Options:
     --solver-module PATH  add PATH to the solver-module targets
     --serve-module PATH   add PATH to the serve blocking-read targets
     --scoring-module PATH add PATH to the direct-scoring targets
     --exclude PATH        skip files under this directory
     --sarif FILE          also write a SARIF 2.1 log to FILE
     --json                print findings as a JSON array, not text
     --explain RULE        print the rule's rationale and examples *)

let usage =
  "usage: wgrap_lint [--solver-module PATH] [--serve-module PATH]\n\
  \                  [--scoring-module PATH]\n\
  \                  [--exclude PATH] [--sarif FILE] [--json]\n\
  \                  [--explain RULE] PATH..."

let rec walk ~excludes path acc =
  if
    List.exists
      (fun dir -> Lint_path.contains_dir ~dir (Lint_path.repo_relative path))
      excludes
  then acc
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> walk ~excludes (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

type parsed = {
  structures : (string * Ppxlib.structure) list;
  signatures : (string * Ppxlib.signature) list;
  parse_failures : Finding.t list;
}

let parse_failure path exn =
  let msg =
    match Ppxlib.Location.Error.of_exn exn with
    | Some e -> Ppxlib.Location.Error.message e
    | None -> Printexc.to_string exn
  in
  { Finding.file = path; line = 1; rule = "parse"; msg }

let parse_files files =
  List.fold_left
    (fun acc path ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lexbuf = Lexing.from_channel ic in
          Lexing.set_filename lexbuf path;
          (* Findings are how a lint surfaces faults; a file the
             compiler would reject is itself the finding. *)
          (try
             if Filename.check_suffix path ".mli" then
               let sg = Ppxlib.Parse.interface lexbuf in
               { acc with signatures = (path, sg) :: acc.signatures }
             else
               let str = Ppxlib.Parse.implementation lexbuf in
               { acc with structures = (path, str) :: acc.structures }
           with exn ->
             {
               acc with
               parse_failures = parse_failure path exn :: acc.parse_failures;
             })
          [@wgrap.allow "silent-catch"]))
    { structures = []; signatures = []; parse_failures = [] }
    files

type opts = {
  mutable paths : string list;
  mutable excludes : string list;
  mutable sarif : string option;
  mutable json : bool;
}

let () =
  let o = { paths = []; excludes = []; sarif = None; json = false } in
  let extra_solver_modules = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--solver-module" :: m :: rest ->
        extra_solver_modules := m :: !extra_solver_modules;
        parse_args rest
    | "--serve-module" :: m :: rest ->
        Lint_config.extra_serve_modules := m :: !Lint_config.extra_serve_modules;
        parse_args rest
    | "--scoring-module" :: m :: rest ->
        Lint_config.extra_direct_scoring_modules :=
          m :: !Lint_config.extra_direct_scoring_modules;
        parse_args rest
    | "--exclude" :: d :: rest ->
        o.excludes <- d :: o.excludes;
        parse_args rest
    | "--sarif" :: f :: rest ->
        o.sarif <- Some f;
        parse_args rest
    | "--json" :: rest ->
        o.json <- true;
        parse_args rest
    | "--explain" :: rule :: rest -> (
        parse_args rest;
        match Explain.find rule with
        | Some e ->
            print_string (Explain.to_text e);
            exit 0
        | None ->
            Printf.eprintf "wgrap_lint: unknown rule %s (rules: %s)\n" rule
              (String.concat ", " (Explain.rule_names ()));
            exit 2)
    | ( "--solver-module" | "--serve-module" | "--scoring-module"
      | "--exclude" | "--sarif" | "--explain" )
      :: [] ->
        prerr_endline usage;
        exit 2
    | ("--help" | "-help") :: _ ->
        print_endline usage;
        exit 0
    | p :: rest ->
        o.paths <- p :: o.paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  Lint_config.extra_solver_modules := !extra_solver_modules;
  if o.paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let files =
    try
      List.fold_left
        (fun acc p -> walk ~excludes:o.excludes p acc)
        []
        (List.rev o.paths)
    with Sys_error m ->
      prerr_endline ("wgrap_lint: " ^ m);
      exit 2
  in
  let parsed = parse_files files in
  let findings = ref parsed.parse_failures in
  (* Phase 1: per-module effect summaries. *)
  let summaries =
    List.map
      (fun (path, str) ->
        Summarize.structure ~path:(Lint_path.repo_relative path) str)
      parsed.structures
  in
  (* Expression rules over every implementation. Keep each file's context
     so the deadline pass can reuse its file-level allows. *)
  let ml_ctxs =
    List.map
      (fun (path, str) ->
        let ctx = Ctx.create path in
        Engine.run ctx Rules.all str;
        findings := ctx.findings @ !findings;
        (path, ctx, str))
      parsed.structures
  in
  (* Phase 2: call graph, effect fixpoint, interprocedural rules. *)
  let cg = Callgraph.build summaries in
  findings := Rule_interproc.check cg @ !findings;
  (* Deadline discipline over the configured solver modules. *)
  let targets = Rule_interproc.solver_targets () in
  List.iter
    (fun (path, ml_ctx, str) ->
      if Lint_path.matches_any ~suffixes:targets path then begin
        let mli_path = path ^ "i" in
        let sg = List.assoc_opt mli_path parsed.signatures in
        let mli_ctx =
          Option.map
            (fun sg ->
              let c = Ctx.create mli_path in
              c.file_allows <- Allow.signature_allows sg;
              c)
            sg
        in
        Rule_deadline.check ~ml_ctx ~mli_ctx ~str ~sg
          ~entry_ok:(Rule_interproc.entry_deadline_ok cg ~path);
        findings := ml_ctx.findings @ !findings;
        Option.iter (fun c -> findings := c.Ctx.findings @ !findings) mli_ctx
      end)
    (List.map
       (fun (path, ctx, str) -> (path, { ctx with Ctx.findings = [] }, str))
       ml_ctxs);
  let findings = List.sort_uniq Finding.compare !findings in
  Option.iter
    (fun f -> Sarif.write_file f (Sarif.to_sarif findings))
    o.sarif;
  if o.json then print_string (Sarif.to_json findings)
  else List.iter (fun f -> print_endline (Finding.to_string f)) findings;
  exit (if findings = [] then 0 else 1)
