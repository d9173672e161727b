(* The interprocedural rules, evaluated over the phase-2 call graph.

   domain-race    a closure handed to Pool.run/map/iter/reduce whose
                  transitive effects write coordinator-shared state.
                  Writes through the closure's own parameters are
                  task-local; Indexed-shape writes partitioned by a task
                  parameter are the Pool's documented sharing idiom.
   nondet-reach   a solver entry point that transitively reads a
                  nondeterministic source (Hashtbl iteration order, a
                  wall clock, the unseeded stdlib RNG) — solves stop
                  being reproducible.

   The transitive half of the deadline rule lives in {!Rule_deadline};
   [entry_deadline_ok] is the query it asks here. *)

let race_rule = "domain-race"
let nondet_rule = "nondet-reach"

let solver_targets () =
  Lint_config.solver_modules @ !Lint_config.extra_solver_modules

let check (cg : Callgraph.t) : Finding.t list =
  let findings = ref [] in
  let add file line rule msg =
    findings := { Finding.file; line; rule; msg } :: !findings
  in
  Array.iteri
    (fun mi (s : Summary.t) ->
      let file_allowed rule = List.mem rule s.file_allows in
      (* domain-race over every spawn site. *)
      List.iter
        (fun (v : Summary.value) ->
          List.iter
            (fun (sp : Summary.spawn) ->
              if not sp.allowed then begin
                let eff = Callgraph.effective cg ~from:mi sp.sbody in
                if Effects.Set.mem Effects.Mut_global eff then
                  let w =
                    Callgraph.witness cg ~from:mi sp.sbody Effects.Mut_global
                  in
                  add s.path sp.sline race_rule
                    (Printf.sprintf
                       "closure passed to Pool.%s writes \
                        coordinator-shared state: %s — tasks run on other \
                        domains; make the state task-local or partition \
                        writes by the task index"
                       sp.pool_fn w)
              end)
            v.spawns)
        s.values;
      (* nondet-reach over solver entry points. *)
      if
        Lint_path.matches_any ~suffixes:(solver_targets ()) s.path
        && not (file_allowed nondet_rule)
      then
        List.iter
          (fun (v : Summary.value) ->
            if
              List.mem v.vname Lint_config.solver_entry_names
              && not (List.mem nondet_rule v.vallows)
            then
              let eff = Callgraph.get_trans cg mi v.vname in
              if Effects.Set.mem Effects.Nondet eff then
                let w = Callgraph.witness cg ~from:mi v.info Effects.Nondet in
                add s.path v.vline nondet_rule
                  (Printf.sprintf
                     "solver entry point %s transitively reads a \
                      nondeterministic source: %s — iteration order, wall \
                      clocks and the unseeded stdlib RNG make solves \
                      unreproducible"
                     v.vname w))
          s.values)
    cg.Callgraph.mods;
  !findings

(* Transitive-deadline query for {!Rule_deadline}: does solver entry
   [name] in [path] reach a Timer poll, or forward a deadline, anywhere
   down its call chain? [None] when the value is not in the graph
   (re-export, include) — the caller falls back to the syntactic file
   scan. *)
let entry_deadline_ok (cg : Callgraph.t) ~path name : bool option =
  match Callgraph.module_of_path cg path with
  | None -> None
  | Some mi -> (
      match Callgraph.value_of cg mi name with
      | None -> None
      | Some _ ->
          let eff = Callgraph.get_trans cg mi name in
          Some
            (Effects.Set.mem Effects.Polls_deadline eff
            || Effects.Set.mem Effects.Forwards_deadline eff))
