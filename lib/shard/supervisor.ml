module Timer = Wgrap_util.Timer
module Rng = Wgrap_util.Rng
module Pool = Wgrap_par.Pool
module Store = Wgrap_persist.Store
module Blob = Wgrap_persist.Blob
module Instance = Wgrap.Instance
module Assignment = Wgrap.Assignment
module Checkpoint = Wgrap.Checkpoint
module Solver = Wgrap.Solver
module Ctx = Wgrap.Solver.Ctx
module Summary = Wgrap.Summary
module Objective = Wgrap.Objective

type fault = Crash | Hang | Invalid_result

type config = {
  retries : int;
  backoff_base : float;
  backoff_cap : float;
  boundary_rounds : int;
  cadence : Store.cadence option;
  store_dir : string option;
  resume : bool;
  refine : bool;
  inject : (shard:int -> attempt:int -> fault option) option;
  on_shard_event : (shard:int -> Checkpoint.event -> unit) option;
}

let default_config =
  {
    retries = 2;
    backoff_base = 0.05;
    backoff_cap = 1.0;
    boundary_rounds = 2;
    cadence = None;
    store_dir = None;
    resume = false;
    refine = true;
    inject = None;
    on_shard_event = None;
  }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A simulated hang: burn the attempt's budget (bounded so unbudgeted
   test runs still terminate), then surface as the timeout it is. *)
let hang_until deadline =
  let bound = 2.0 in
  let d =
    match deadline with
    | Some d -> Timer.deadline (Float.min bound (Float.max 0. (Timer.remaining d)))
    | None -> Timer.deadline bound
  in
  while not (Timer.expired d) do
    Unix.sleepf 0.01
  done;
  raise Timer.Expired

(* A deliberately constraint-violating result for the [Invalid_result]
   fault: every group is delta_p copies of reviewer 0 — duplicate
   members and a blown workload cap in one. *)
let invalid_assignment sub =
  let a = Assignment.empty ~n_papers:(Instance.n_papers sub) in
  for p = 0 to Instance.n_papers sub - 1 do
    for _ = 1 to sub.Instance.delta_p do
      Assignment.add a ~paper:p ~reviewer:0
    done
  done;
  a

let result_blob_of a = String.concat "\n" (Assignment.to_lines a)

let assignment_of_blob sub payload =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' payload) in
  match Assignment.of_lines ~n_papers:(Instance.n_papers sub) lines with
  | Ok a -> ( match Assignment.validate sub a with Ok () -> Some a | Error _ -> None)
  | Error _ -> None

let manifest_text ~candidates ~objective cfg (part : Partition.t) =
  String.concat "\n"
    [
      "shards=" ^ string_of_int part.Partition.shards;
      "refine=" ^ string_of_bool cfg.refine;
      "boundary_rounds=" ^ string_of_int cfg.boundary_rounds;
      "candidates=" ^ string_of_int candidates;
      "objective=" ^ Objective.describe objective;
      "partition=" ^ Partition.fingerprint part;
    ]

(* The manifest pins a checkpoint directory to one (partition, flags)
   combination: resuming yesterday's shards with today's flags would
   silently change what the cached results mean, so mismatch is
   fail-stop. *)
let manifest_gate ~candidates ~objective cfg part =
  match cfg.store_dir with
  | None -> Ok ()
  | Some dir ->
      let path = Filename.concat dir "manifest.blob" in
      let text = manifest_text ~candidates ~objective cfg part in
      if cfg.resume && Sys.file_exists path then
        match Blob.read path with
        (* Blob.write newline-terminates the payload; read returns it
           with that final newline attached. *)
        | Ok stored when String.equal stored (text ^ "\n") -> Ok ()
        | Ok stored ->
            Error
              (Printf.sprintf
                 "checkpoint manifest mismatch in %s: stored run used [%s] \
                  but this run is [%s]; re-run without --resume or point the \
                  checkpoint directory elsewhere"
                 dir
                 (String.concat "; "
                    (List.filter
                       (fun s -> not (String.equal s ""))
                       (String.split_on_char '\n' stored)))
                 (String.concat "; " (String.split_on_char '\n' text)))
        | Error e ->
            Error
              (Printf.sprintf "unreadable checkpoint manifest %s: %s" path
                 (Blob.error_message e))
      else
        match
          mkdir_p dir;
          Blob.write ~path text
        with
        | () -> Ok ()
        | exception e -> Error (Solver.describe_exn e)

(* Everything one shard task reports back to the coordinator. *)
type shard_report = {
  result : Assignment.t option;
  rev_reasons : Solver.reason list;  (** newest first *)
  prov : Summary.shard_provenance;
}

let run_shard ~cfg ~ctx ~inst ~(part : Partition.t) ~slice ~solve_streams
    ~backoff_streams s =
  let t0 = Timer.now () in
  let link = Printf.sprintf "shard-%d" s in
  let rev_reasons = ref [] in
  let push r = rev_reasons := r :: !rev_reasons in
  let report ?result ~attempts status =
    {
      result;
      rev_reasons = !rev_reasons;
      prov =
        {
          Summary.shard = s;
          shard_papers = Array.length part.Partition.papers.(s);
          attempts;
          shard_status = status;
          shard_elapsed = Timer.now () -. t0;
        };
    }
  in
  match Partition.sub_instance inst part s with
  | exception e ->
      push (Solver.Fault { link; error = Solver.describe_exn e });
      report ~attempts:0 (Summary.Shard_fallback "sub-instance construction failed")
  | sub -> (
      let dir = Option.map (fun d -> Filename.concat d (Printf.sprintf "shard-%03d" s)) cfg.store_dir in
      let result_path = Option.map (fun d -> Filename.concat d "result.blob") dir in
      let frozen =
        if not cfg.resume then None
        else
          Option.bind result_path (fun p ->
              if Sys.file_exists p then
                match Blob.read p with
                | Ok payload -> assignment_of_blob sub payload
                | Error _ -> None
              else None)
      in
      match frozen with
      | Some a ->
          (* A completed shard from the interrupted run: reuse it
             verbatim — this is what makes resume bit-identical. *)
          report ~result:a ~attempts:0 Summary.Shard_cached
      | None ->
          let freeze a =
            match
              Option.iter (fun p -> Blob.write ~path:p (result_blob_of a)) result_path
            with
            | () -> ()
            | exception e ->
                (* A result we cannot freeze is still a result; record
                   the durability loss instead of failing the shard. *)
                push (Solver.Fault { link; error = "result checkpoint lost: " ^ Solver.describe_exn e })
          in
          let solve_words = Rng.words solve_streams.(s) in
          let backoffs = Rng.split backoff_streams.(s) (cfg.retries + 1) in
          (* The shard's gain matrix survives retries: values are pure,
             so reuse is safe and warm rows make a retry cheap. Built
             over the objective's view (the ctx.gains contract): a
             transforming backend scores smoothed vectors, not raw
             ones. *)
          let gains =
            Wgrap.Gain_matrix.create ~candidates:ctx.Ctx.candidates
              (Objective.view (Objective.bind ctx.Ctx.objective sub))
          in
          let backoff_before k =
            if k > 0 then begin
              let jitter = 0.5 +. Rng.uniform backoffs.(k) in
              let pause =
                Float.min cfg.backoff_cap
                  (cfg.backoff_base *. (2. ** float_of_int (k - 1)))
                *. jitter
              in
              let pause =
                match ctx.Ctx.deadline with
                | Some g -> Float.min pause (Float.max 0. (Timer.remaining g))
                | None -> pause
              in
              if pause > 0. then Unix.sleepf pause
            end
          in
          let attempt_deadline () =
            match ctx.Ctx.deadline with
            | None -> None
            | Some g ->
                let rem = Float.max 0. (Timer.remaining g) in
                Some (Timer.deadline (Float.min rem slice))
          in
          let real_attempt ~k ~deadline =
            let resume_state =
              match dir with
              | Some d when cfg.resume || k > 0 -> (
                  match Store.load ~dir:d sub with
                  | Ok st -> Some st
                  | Error Store.No_checkpoint -> None
                  | Error (Store.Invalid msg) ->
                      push (Solver.Stale_checkpoint { error = msg });
                      None)
              | _ -> None
            in
            let store =
              Option.map
                (fun d ->
                  Store.open_ ?cadence:cfg.cadence
                    ~fresh:(Option.is_none resume_state)
                    ~dir:d ())
                dir
            in
            let sink =
              let stored = Option.map Store.sink store in
              match cfg.on_shard_event with
              | None -> stored
              | Some f ->
                  let observe e = f ~shard:s e in
                  Some
                    (match stored with
                    | None -> { Checkpoint.on_event = observe; offer = (fun _ -> ()) }
                    | Some b ->
                        {
                          Checkpoint.on_event =
                            (fun e ->
                              b.Checkpoint.on_event e;
                              observe e);
                          offer = b.Checkpoint.offer;
                        })
            in
            let sctx =
              {
                Ctx.deadline;
                (* Every attempt replays the same stream: retry after a
                   mid-attempt failure resumes the checkpointed rounds
                   bit-exactly, and a fresh retry reproduces the
                   original attempt. *)
                rng = Some (Rng.of_words solve_words);
                gains = Some gains;
                candidates = ctx.Ctx.candidates;
                objective = ctx.Ctx.objective;
                checkpoint = sink;
                resume_from = Option.map Result.ok resume_state;
                pool = None;
              }
            in
            Fun.protect
              ~finally:(fun () -> Option.iter Store.close store)
              (fun () -> Solver.primary ~refine:cfg.refine ~ctx:sctx sub)
          in
          let rec attempt k =
            if k > cfg.retries then None
            else begin
              backoff_before k;
              let deadline = attempt_deadline () in
              match
                match Option.bind cfg.inject (fun f -> f ~shard:s ~attempt:k) with
                | Some Crash -> failwith "injected shard fault: crash"
                | Some Hang -> hang_until deadline
                | Some Invalid_result -> invalid_assignment sub
                | None -> real_attempt ~k ~deadline
              with
              | a -> (
                  match Assignment.validate sub a with
                  | Ok () -> Some (a, k + 1)
                  | Error msg ->
                      push (Solver.Fault { link; error = "invalid shard result: " ^ msg });
                      attempt (k + 1))
              | exception Wgrap_util.Timer.Expired ->
                  push (Solver.Timeout { link });
                  attempt (k + 1)
              | exception e ->
                  push (Solver.Fault { link; error = Solver.describe_exn e });
                  attempt (k + 1)
            end
          in
          (match attempt 0 with
          | Some (a, attempts) ->
              freeze a;
              let status =
                match !rev_reasons with
                | [] -> Summary.Shard_complete
                | rs ->
                    Summary.Shard_degraded
                      (List.rev_map (Format.asprintf "%a" Solver.pp_reason) rs)
              in
              report ~result:a ~attempts status
          | None -> (
              (* Retries exhausted: the greedy backstop, undeadlined —
                 a weak answer beats a dropped shard. *)
              let last =
                match !rev_reasons with
                | r :: _ -> Format.asprintf "%a" Solver.pp_reason r
                | [] -> "no attempt ran"
              in
              match
                let a =
                  Wgrap.Greedy.solve
                    ~ctx:
                      {
                        Ctx.default with
                        Ctx.candidates = ctx.Ctx.candidates;
                        objective = ctx.Ctx.objective;
                      }
                    sub
                in
                Wgrap.Repair.complete sub a;
                a
              with
              | a -> (
                  match Assignment.validate sub a with
                  | Ok () ->
                      freeze a;
                      report ~result:a ~attempts:(cfg.retries + 1)
                        (Summary.Shard_fallback last)
                  | Error msg ->
                      push (Solver.Fault { link; error = "backstop invalid: " ^ msg });
                      report ~attempts:(cfg.retries + 1) (Summary.Shard_fallback last))
              | exception e ->
                  push (Solver.Fault { link; error = Solver.describe_exn e });
                  report ~attempts:(cfg.retries + 1) (Summary.Shard_fallback last))))

let solve ?(config = default_config) ?(ctx = Ctx.default) ~shards inst =
  let cfg = config in
  let part = Partition.make ~shards inst in
  match
    manifest_gate ~candidates:ctx.Ctx.candidates
      ~objective:ctx.Ctx.objective cfg part
  with
  | Error msg -> (Solver.Infeasible msg, [])
  | Ok () ->
      (* Root the split streams in a copy: the caller's generator must
         not advance (determinism at any call site), and both runs of a
         kill/resume pair must derive identical streams. *)
      let base = Rng.copy (Ctx.rng_or ~seed:0 ctx) in
      let solve_streams = Rng.split base part.Partition.shards in
      let backoff_streams = Rng.split base part.Partition.shards in
      let boundary_rng = (Rng.split base 1).(0) in
      let slice =
        match ctx.Ctx.deadline with
        | None -> Float.infinity
        | Some d -> Float.max 0. (Timer.remaining d) /. float_of_int part.Partition.shards
      in
      let pool = match ctx.Ctx.pool with Some p -> p | None -> Pool.sequential in
      let reports =
        Pool.run pool ~n:part.Partition.shards
          (run_shard ~cfg ~ctx ~inst ~part ~slice ~solve_streams ~backoff_streams)
      in
      (* Reasons are reported in shard order, then the boundary pass's. *)
      let shard_reasons =
        List.concat_map (fun r -> List.rev r.rev_reasons) (Array.to_list reports)
      in
      let provenance = Array.to_list (Array.map (fun r -> r.prov) reports) in
      let missing =
        Array.to_list reports
        |> List.filter (fun r -> Option.is_none r.result)
        |> List.map (fun r -> r.prov.Summary.shard)
      in
      if missing <> [] then
        ( Solver.Infeasible
            (Printf.sprintf "shard(s) %s produced no assignment even via the backstop"
               (String.concat ", " (List.map string_of_int missing))),
          provenance )
      else
        let results = Array.map (fun r -> Option.get r.result) reports in
        match Merge.merge inst part results with
        | Error msg -> (Solver.Infeasible ("shard merge failed: " ^ msg), provenance)
        | Ok (merged, _trimmed) ->
            let final, boundary_reasons =
              if cfg.boundary_rounds <= 0 then (merged, [])
              else
                (* Boundary repair: a short, round-capped, undeadlined
                   SRA pass over the full instance knits shard seams
                   back together. Deterministic (no clock in the exit
                   condition) and never worse than its input. *)
                let params =
                  {
                    Wgrap.Sra.default_params with
                    Wgrap.Sra.max_rounds = cfg.boundary_rounds;
                  }
                in
                match
                  Wgrap.Sra.refine ~params
                    ~ctx:
                      {
                        Ctx.default with
                        Ctx.rng = Some boundary_rng;
                        candidates = ctx.Ctx.candidates;
                        objective = ctx.Ctx.objective;
                      }
                    inst merged
                with
                | a -> (a, [])
                | exception e ->
                    let error = Solver.describe_exn e in
                    (merged, [ Solver.Fault { link = "boundary-sra"; error } ])
            in
            (match Assignment.validate inst final with
            | Error msg ->
                (Solver.Infeasible ("merged assignment invalid: " ^ msg), provenance)
            | Ok () -> (
                match shard_reasons @ boundary_reasons with
                | [] -> (Solver.Complete final, provenance)
                | rs -> (Solver.Degraded (final, rs), provenance)))
