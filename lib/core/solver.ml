module Timer = Wgrap_util.Timer
module Ctx = Ctx

type reason =
  | Timeout of { link : string }
  | Fault of { link : string; error : string }
  | Stale_checkpoint of { error : string }

type 'a outcome =
  | Complete of 'a
  | Degraded of 'a * reason list
  | Infeasible of string

let value = function
  | Complete a | Degraded (a, _) -> Some a
  | Infeasible _ -> None

let status = function
  | Complete _ -> "complete"
  | Degraded _ -> "degraded"
  | Infeasible _ -> "infeasible"

let reasons = function
  | Complete _ | Infeasible _ -> []
  | Degraded (_, rs) -> rs

let pp_reason ppf = function
  | Timeout { link } -> Format.fprintf ppf "%s: deadline expired" link
  | Fault { link; error } -> Format.fprintf ppf "%s: %s" link error
  | Stale_checkpoint { error } ->
      Format.fprintf ppf "checkpoint: discarded (%s); ran fresh" error

(* A fresh deadline covering [frac] of what remains of [d]. Sub-budgets
   are real deadlines of their own so a link cannot starve its
   successors, while the outer deadline stays the hard stop. *)
let slice frac = function
  | None -> None
  | Some d -> Some (Timer.deadline (frac *. Timer.remaining d))

(* The exception text stored in [Fault]: message plus, when the runtime
   is recording them, the raised backtrace — a degraded run must be
   debuggable from the stderr summary alone. Callers invoke this first
   thing in an exception handler, before anything can overwrite the
   global backtrace slot. *)
let describe_exn e =
  let msg =
    match e with
    | Failure m -> m
    (* A deadline expiry that escaped a solver is a truncation, not a
       crash; name it as such so service-mode degradation reports read
       as the timeout they are instead of "Wgrap_util.Timer.Expired". *)
    | Timer.Expired -> "deadline expired"
    | e -> Printexc.to_string e
  in
  if Printexc.backtrace_status () then
    match String.trim (Printexc.get_backtrace ()) with
    | "" -> msg
    | bt -> msg ^ "\n" ^ bt
  else msg

(* Service-mode degradation text: the reason, stamped with the event
   that triggered the re-solve and how much of its deadline was left
   when the reason was recorded — `wgrap serve` answers and quarantine
   logs must be attributable to one event without correlating streams. *)
let describe_reason ?event ?deadline r =
  let base = Format.asprintf "%a" pp_reason r in
  match (event, deadline) with
  | None, None -> base
  | _ ->
      let parts =
        (match event with
        | Some id -> [ Printf.sprintf "event=%d" id ]
        | None -> [])
        @
        match deadline with
        | Some d ->
            [
              Printf.sprintf "deadline-remaining=%.0fms"
                (1000. *. Timer.remaining d);
            ]
        | None -> []
      in
      base ^ " [" ^ String.concat " " parts ^ "]"

(* {1 JRA chain: BBA -> greedy} *)

let jra ?(ctx = Ctx.default) problem =
  let deadline = ctx.Ctx.deadline in
  match Jra_bba.solve ?deadline problem with
  | sol ->
      (* On expiry BBA returns its best incumbent (a greedy pick when it
         reached no leaf), so the answer is exact only if the deadline
         never fired. *)
      if Timer.expired_opt deadline then
        Degraded (sol, [ Timeout { link = "jra-bba" } ])
      else Complete sol
  | exception e -> (
      let bba = Fault { link = "jra-bba"; error = describe_exn e } in
      match Jra.greedy problem with
      | sol -> Degraded (sol, [ bba ])
      | exception e ->
          Infeasible
            ("every JRA link failed to produce a group: " ^ describe_exn e))

(* {1 CRA chain: primary (SDGA or greedy, + SRA) -> SDGA -> per-stage greedy} *)

(* The chain's one gain matrix: the caller's, or a fresh one, so every
   link shares rows. *)
let chain_gains ctx inst =
  match ctx.Ctx.gains with
  | Some g -> g
  | None -> Gain_matrix.create ~candidates:ctx.Ctx.candidates inst

(* A sub-context for one link: the chain's pool and objective and its
   gain matrix [gm], plus the link's own deadline, sink, resume state
   and generator. Never the chain's [rng] unless passed (each path
   decides the generator explicitly). *)
let link_ctx ctx ~gm ?deadline ?sink ?resume ?rng () =
  {
    Ctx.deadline;
    rng;
    gains = Some gm;
    (* Redundant while [gains] is set, but links that build private
       matrices from a context should inherit the chain's pruning width
       rather than silently go dense. *)
    candidates = ctx.Ctx.candidates;
    checkpoint = sink;
    resume_from = Option.map Result.ok resume;
    pool = ctx.Ctx.pool;
    objective = ctx.Ctx.objective;
  }

(* The primary link's name — the stamp its checkpoints carry. SDGA may
   lead only when the spec is submodular: Lemma 4 is what its
   stage-confinement guarantee rests on. *)
let primary_link spec =
  if Objective.submodular spec then "sdga+sra" else "greedy+sra"

(* The bare primary CRA link, the one [cra] runs first. Unlike [cra]
   this *raises* on failure — Timer.Expired on expiry, the solver's
   exception on a fault — and performs no validation or repair; [cra]
   owns the degradation ladder. The seed is SDGA ("sdga+sra") for
   submodular objectives, else the lazy greedy ("greedy+sra": valid for
   any monotone objective, it runs on raw coverage gains), and all
   objective-aware work happens in the SRA refinement, which makes no
   structural assumption. *)
let primary ~refine ~ctx inst =
  let sdga = Objective.submodular ctx.Ctx.objective in
  let link = primary_link ctx.Ctx.objective in
  let deadline = ctx.Ctx.deadline in
  let checkpoint = ctx.Ctx.checkpoint in
  Option.iter
    (fun s -> s.Checkpoint.on_event (Checkpoint.Link_entered { link }))
    checkpoint;
  let sink = Option.map (Checkpoint.with_link link) checkpoint in
  (* One gain matrix serves the seed and the refinement: [cra]'s, handed
     down in [ctx.gains]. *)
  let gm = chain_gains ctx inst in
  let fresh_rng () = Ctx.rng_or ~seed:0 ctx in
  (* Only a certified state stamped with this link resumes it; anything
     else (another link's state, a loader rejection) means fresh. *)
  let resume_state =
    match ctx.Ctx.resume_from with
    | Some (Ok st) when String.equal st.Checkpoint.link link -> Some st
    | _ -> None
  in
  let refine_from ?resume ~rng a =
    (* One chain at every job count: SRA never reads the pool, so the
       answer does not depend on it. *)
    Sra.refine ~ctx:(link_ctx ctx ~gm ?deadline ?sink ?resume ~rng ()) inst a
  in
  match resume_state with
  | Some ({ Checkpoint.phase = Checkpoint.Sra_round _; _ } as st) ->
      (* Interrupted mid-refinement: the seed's work is inside [st]; the
         restored RNG words make the remaining rounds replay the
         uninterrupted run exactly. *)
      if not refine then st.Checkpoint.best
      else
        let rng =
          match st.Checkpoint.rng with
          | Some w -> Wgrap_util.Rng.of_words w
          | None -> fresh_rng ()
        in
        refine_from ~resume:st ~rng st.Checkpoint.best
  | resume ->
      (* Fresh, or interrupted mid-SDGA (phase [Sdga_stage]; the greedy
         seed has no checkpoint phases): the stage loop re-enters after
         the committed stages and the refinement starts from the same
         seed either way. The seed gets half (SDGA) or, being cheap next
         to the refinement, 30% (greedy) of the remaining budget;
         refinement, which improves monotonically and can stop at any
         round, soaks up the rest. *)
      let seed_slice =
        if refine then slice (if sdga then 0.5 else 0.3) deadline else deadline
      in
      let seed_ctx = link_ctx ctx ~gm ?deadline:seed_slice ?sink ?resume () in
      let a =
        if sdga then Sdga.solve ~ctx:seed_ctx inst
        else Greedy.solve ~ctx:seed_ctx inst
      in
      if (not refine) || Timer.expired_opt deadline then a
      else refine_from ~rng:(fresh_rng ()) a

let cra ?(refine = true) ?(ctx = Ctx.default) inst =
  let deadline = ctx.Ctx.deadline in
  let checkpoint = ctx.Ctx.checkpoint in
  let resume_from = ctx.Ctx.resume_from in
  let rev_reasons = ref [] in
  let push r = rev_reasons := r :: !rev_reasons in
  (* A rejected checkpoint (corrupt, stale, failed certification) never
     poisons the answer: the run degrades to fresh with the loader's
     verdict carried as a machine-readable reason. *)
  let resume_state =
    match resume_from with
    | None -> None
    | Some (Ok st) -> Some st
    | Some (Error msg) ->
        push (Stale_checkpoint { error = msg });
        None
  in
  let resume_link =
    match resume_state with Some st -> st.Checkpoint.link | None -> ""
  in
  let sink_for link = Option.map (Checkpoint.with_link link) checkpoint in
  let enter link =
    Option.iter
      (fun s -> s.Checkpoint.on_event (Checkpoint.Link_entered { link }))
      checkpoint
  in
  (* Accept a candidate only if it passes full validation; a truncated
     run that left short groups gets one shot at greedy completion. *)
  let checked link a =
    match Assignment.validate inst a with
    | Ok () -> Some a
    | Error msg -> (
        match Repair.complete inst a with
        | () -> (
            match Assignment.validate inst a with
            | Ok () ->
                push (Fault { link; error = "repaired: " ^ msg });
                Some a
            | Error msg' ->
                push (Fault { link; error = msg' });
                None)
        | exception e ->
            push (Fault { link; error = describe_exn e });
            None)
  in
  let run link f =
    match f () with
    | a ->
        let out = checked link a in
        if Option.is_some out && Timer.expired_opt deadline then
          push (Timeout { link });
        out
    | exception Timer.Expired ->
        push (Timeout { link });
        None
    | exception e ->
        push (Fault { link; error = describe_exn e });
        None
  in
  (* One gain matrix serves the whole chain: the primary link fills it,
     SRA reuses its Eq. 9 column sums and surviving rows, and the
     fallback links reset it on entry. *)
  let gm = chain_gains ctx inst in
  let link_ctx = link_ctx ctx ~gm in
  (* The ladder is routed by the objective's structure: when SDGA may
     not lead, the primary is the greedy-seeded refinement and SDGA is
     skipped entirely. *)
  let sdga_safe = Objective.submodular ctx.Ctx.objective in
  let primary_name = primary_link ctx.Ctx.objective in
  (* The primary link is handed the chain's gain matrix, raw sink and
     (already Error-stripped) resume state; it re-emits Link_entered
     and stamps its own sink link. *)
  let primary () =
    primary ~refine
      ~ctx:
        (link_ctx ?deadline ?sink:checkpoint ?resume:resume_state
           ?rng:ctx.Ctx.rng ())
      inst
  in
  let sdga_alone () =
    enter "sdga";
    let resume =
      match resume_state with
      | Some ({ Checkpoint.link = "sdga"; _ } as st) -> Some st
      | _ -> None
    in
    Sdga.solve
      ~ctx:(link_ctx ?deadline ?sink:(sink_for "sdga") ?resume ())
      inst
  in
  let greedy () =
    enter "greedy";
    Greedy.solve ~ctx:(link_ctx ?deadline ()) inst
  in
  (* A resumed run re-enters the chain at the link that was interrupted
     instead of re-running (and possibly re-faulting on) earlier links. *)
  let result =
    let from_primary () =
      match run primary_name primary with
      | Some a -> Some a
      | None when sdga_safe -> (
          match run "sdga" sdga_alone with
          | Some a -> Some a
          | None -> run "greedy" greedy)
      | None -> run "greedy" greedy
    in
    match resume_link with
    | "sdga" when sdga_safe -> (
        match run "sdga" sdga_alone with
        | Some a -> Some a
        | None -> run "greedy" greedy)
    | "greedy" -> run "greedy" greedy
    | _ -> from_primary ()
  in
  match result with
  | Some a -> (
      match List.rev !rev_reasons with
      | [] -> Complete a
      | rs -> Degraded (a, rs))
  | None ->
      let detail =
        match !rev_reasons with
        | Fault { error; _ } :: _ -> ": " ^ error
        | _ -> ""
      in
      Infeasible ("every CRA link failed to produce a valid assignment" ^ detail)
