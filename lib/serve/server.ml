module Solver = Wgrap.Solver
module Timer = Wgrap_util.Timer

type config = {
  dim : int;
  delta_p : int;
  delta_r : int;
  objective : Wgrap.Objective.spec;
  event_budget : float option;
  improve_slice : float;
  queue_limit : int;
  p99_limit_ms : float;
  snapshot_every : int;
  max_restarts : int;
  max_line : int;
  idle_poll : float;
}

let default ~dim ~delta_p ~delta_r =
  {
    dim;
    delta_p;
    delta_r;
    objective = Wgrap.Objective.coverage;
    event_budget = Some 0.05;
    improve_slice = 0.02;
    queue_limit = 64;
    p99_limit_ms = 250.;
    snapshot_every = 64;
    max_restarts = 5;
    max_line = 65536;
    idle_poll = 0.2;
  }

type counters = {
  mutable accepted : int;
  mutable rejected : int;
  mutable improved : int;
  mutable degraded : int;
  mutable restarts : int;
}

type t = {
  cfg : config;
  state : State.t;
  durable : Durable.t option;
  admission : Admission.t;
  counters : counters;
  exhausted : (int, unit) Hashtbl.t;
      (** pending papers the improvement pass gave up on; cleared on
          every accepted mutation (new capacity may unblock them) *)
  mutable improve_idle : bool;
  mutable line_no : int;
  mutable entries_since_snapshot : int;
}

(* A commit failure after a successful journal append: planner bug or
   memory corruption. The entry was never acked and replay
   certification rejects it, so fail-stop keeps the durable history
   honest. *)
exception Fatal of string

let make ?durable cfg state =
  (* the snapshot codec never records the objective (it only shapes the
     stats report), so a decoded state always arrives with coverage;
     install the configured one here. *)
  State.set_objective state cfg.objective;
  {
    cfg;
    state;
    durable;
    admission =
      Admission.create ~max_queue:cfg.queue_limit
        ~p99_limit_ms:cfg.p99_limit_ms ();
    counters =
      { accepted = 0; rejected = 0; improved = 0; degraded = 0; restarts = 0 };
    exhausted = Hashtbl.create 16;
    improve_idle = false;
    line_no = 0;
    entries_since_snapshot = 0;
  }

let of_state ?durable cfg state = make ?durable cfg state

let create ?durable cfg =
  Result.map (make ?durable cfg)
    (State.create ~dim:cfg.dim ~delta_p:cfg.delta_p ~delta_r:cfg.delta_r ())

let state t = t.state

(* {1 Durability plumbing} *)

let journal_entry t entry =
  match t.durable with
  | None -> Ok ()
  | Some d -> Durable.append d (Event.encode_entry entry)

let snapshot_now t =
  match t.durable with
  | None -> ()
  | Some d -> (
      match Durable.snapshot d (State.encode t.state) with
      | Ok () -> t.entries_since_snapshot <- 0
      | Error _ ->
          (* recorded in [Durable.snapshot_failed]; surfaced by health.
             The journal still holds everything, so durability is
             intact — only replay time grows. *)
          ())

let after_commit t =
  t.entries_since_snapshot <- t.entries_since_snapshot + 1;
  if t.entries_since_snapshot >= t.cfg.snapshot_every then snapshot_now t

let quarantine t ~reason raw =
  match t.durable with
  | None -> ()
  | Some d -> Durable.quarantine d ~line:t.line_no ~reason raw

(* {1 Request handling} *)

let reject t ~id ~reason raw =
  t.counters.rejected <- t.counters.rejected + 1;
  quarantine t ~reason raw;
  Printf.sprintf "err %s line=%d %s" id t.line_no reason

let answer_read t id (r : Event.read) =
  match r with
  | Event.Query p -> (
      match State.query t.state p with
      | None ->
          reject t ~id:(string_of_int id)
            ~reason:(Printf.sprintf "unknown paper %d" p)
            (Printf.sprintf "%d query %d" id p)
      | Some a ->
          Printf.sprintf "ok %d paper=%d group=%s score=%.6f short=%b pending=%b"
            id p
            (match a.State.group with
            | [] -> "-"
            | g -> String.concat "," (List.map string_of_int g))
            a.State.score a.State.short a.State.is_pending)
  | Event.Health ->
      let journal, snapshot =
        match t.durable with
        | None -> ("none", "none")
        | Some d ->
            ( (match Durable.journal_failed d with Some _ -> "failed" | None -> "ok"),
              match Durable.snapshot_failed d with
              | Some _ -> "failed"
              | None -> "ok" )
      in
      let overall = if journal = "failed" then "degraded" else "ok" in
      Printf.sprintf "ok %d health=%s journal=%s snapshot=%s pending=%d restarts=%d"
        id overall journal snapshot
        (List.length (State.pending t.state))
        t.counters.restarts
  | Event.Stats -> (
      (* one compact JSON document per line: the service counters, then
         the same summary rendering `wgrap assign --json` uses *)
      let extra =
        [
          ("accepted", string_of_int t.counters.accepted);
          ("rejected", string_of_int t.counters.rejected);
          ("shed", string_of_int (Admission.shed_count t.admission));
          ("improved", string_of_int t.counters.improved);
          ("degraded", string_of_int t.counters.degraded);
          ("seq", string_of_int (State.applied t.state));
          ("pending", string_of_int (List.length (State.pending t.state)));
          ("p99_ms", Printf.sprintf "%.1f" (Admission.p99_ms t.admission));
        ]
      in
      match State.summary t.state with
      | Some s ->
          Printf.sprintf "ok %d stats %s" id
            (Wgrap.Summary.to_json ~compact:true ~extra s)
      | None ->
          (* no papers or no reviewers yet, or an objective shaped to
             another roster: counters only *)
          Printf.sprintf "ok %d stats {%s, \"papers\": %d, \"reviewers\": %d}"
            id
            (String.concat ", "
               (List.map
                  (fun (k, v) -> Wgrap.Summary.json_string k ^ ": " ^ v)
                  extra))
            (State.n_papers t.state)
            (State.n_reviewers t.state))

let handle_mutation t id (req : Event.req) raw =
  let sid = string_of_int id in
  if id <= State.last_client t.state then
    reject t ~id:sid
      ~reason:
        (Printf.sprintf
           "event id %d not above last accepted id %d (duplicate or \
            out-of-order)"
           id
           (State.last_client t.state))
      raw
  else
    match State.validate_req t.state req with
    | Error reason -> reject t ~id:sid ~reason raw
    | Ok () -> (
        let started = Timer.now () in
        let deadline = Option.map Timer.deadline t.cfg.event_budget in
        let planned = State.plan ?deadline t.state req in
        let seq = State.applied t.state + 1 in
        let entry = Event.Client { seq; id; req; ops = planned.State.ops } in
        match journal_entry t entry with
        | Error m -> reject t ~id:sid ~reason:m raw
        | Ok () -> (
            match State.commit t.state entry with
            | Error m ->
                raise
                  (Fatal
                     (Printf.sprintf "commit of journaled entry %d failed: %s"
                        seq m))
            | Ok () ->
                t.counters.accepted <- t.counters.accepted + 1;
                Hashtbl.reset t.exhausted;
                t.improve_idle <- false;
                after_commit t;
                Admission.observe t.admission
                  (1000. *. (Timer.now () -. started));
                let status, detail =
                  match planned.State.reasons with
                  | [] ->
                      let short =
                        List.exists
                          (function Event.Pend _ -> true | _ -> false)
                          planned.State.ops
                      in
                      ((if short then "short" else "complete"), "")
                  | r :: _ ->
                      t.counters.degraded <- t.counters.degraded + 1;
                      ( "degraded",
                        Printf.sprintf " detail=%S"
                          (Solver.describe_reason ~event:id ?deadline r) )
                in
                Printf.sprintf "ok %d seq=%d status=%s%s" id seq status detail))

let handle_line t raw =
  t.line_no <- t.line_no + 1;
  if raw = "" then reject t ~id:"-" ~reason:"empty line" raw
  else
    match Event.parse ~dim:(State.dim t.state) raw with
    | Error reason -> reject t ~id:(Event.request_id raw) ~reason raw
    | Ok { Event.id; request = Event.Read r } -> answer_read t id r
    | Ok { Event.id; request = Event.Mutate req } -> handle_mutation t id req raw

(* {1 Idle improvement} *)

let improve_once t =
  if t.improve_idle then false
  else begin
    let deadline = Timer.deadline t.cfg.improve_slice in
    let rec go () =
      match
        State.plan_improve ~deadline ~skip:(Hashtbl.mem t.exhausted) t.state
      with
      | State.Idle ->
          t.improve_idle <- true;
          false
      | State.Exhausted p ->
          Hashtbl.replace t.exhausted p ();
          if Timer.expired deadline then false else go ()
      | State.Improved ops -> (
          let seq = State.applied t.state + 1 in
          let entry = Event.Improve { seq; ops } in
          match journal_entry t entry with
          | Error _ ->
              (* durability first: an unjournaled improvement is not
                 applied. Park the paper until the next mutation. *)
              (match ops with
              | Event.Set_group { paper; _ } :: _
              | Event.Pend paper :: _
              | Event.Unpend paper :: _ ->
                  Hashtbl.replace t.exhausted paper ()
              | [] -> ());
              false
          | Ok () -> (
              match State.commit t.state entry with
              | Error m ->
                  raise
                    (Fatal
                       (Printf.sprintf
                          "commit of journaled improvement %d failed: %s" seq m))
              | Ok () ->
                  t.counters.improved <- t.counters.improved + 1;
                  after_commit t;
                  true))
    in
    go ()
  end

(* {1 The event loop} *)

let run t ~input ~output =
  let tr = Transport.of_fd ~max_line:t.cfg.max_line input in
  let q = Queue.create () in
  let eof = ref false in
  let output_gone = ref false in
  let respond s =
    if not !output_gone then
      try
        output_string output s;
        output_char output '\n';
        flush output
      with Sys_error _ | Unix.Unix_error (Unix.EPIPE, _, _) ->
        (* The client vanished before reading this response (EPIPE /
           closed pipe; requires SIGPIPE to be ignored, see
           [serve_socket]). Everything journaled so far is durable, and
           an at-least-once client retries whatever it never saw acked —
           but accepting more events whose acks cannot be delivered
           helps nobody, so treat the conversation as over. *)
        output_gone := true;
        eof := true
  in
  let busy_response raw ms =
    Printf.sprintf "busy %s retry-after=%d" (Event.request_id raw) ms
  in
  (* Admit or shed everything already readable; optionally block
     [idle_poll] for the first line when there is nothing else to do. *)
  let drain_input ~block =
    let rec go first =
      if !eof then ()
      else
        let timeout = if first && block then t.cfg.idle_poll else 0. in
        match Transport.read_line tr ~timeout with
        | Transport.Line raw ->
            t.line_no <- t.line_no + 1;
            (match Admission.decide t.admission ~depth:(Queue.length q) with
            | Admission.Admit -> Queue.add (t.line_no, raw) q
            | Admission.Shed ms -> respond (busy_response raw ms));
            go false
        | Transport.Oversized ->
            t.line_no <- t.line_no + 1;
            t.counters.rejected <- t.counters.rejected + 1;
            quarantine t ~reason:"oversized line discarded" "";
            respond
              (Printf.sprintf "err - line=%d oversized line discarded"
                 t.line_no);
            go false
        | Transport.Timeout -> ()
        | Transport.Eof -> eof := true
    in
    go true
  in
  let process (line_no, raw) =
    (* [handle_line] numbers lines itself, but this line's number was
       already assigned at read time; pin it for the handler and then
       restore the high-water mark so read-ahead numbering continues *)
    let mark = t.line_no in
    t.line_no <- line_no - 1;
    let resp = handle_line t raw in
    t.line_no <- max mark t.line_no;
    respond resp
  in
  let improvable () = (not t.improve_idle) && State.pending t.state <> [] in
  let rec loop () =
    (* lines admitted before the client vanished can no longer be
       acked; drop them un-journaled so the retry is clean *)
    if !output_gone then Queue.clear q;
    drain_input ~block:(Queue.is_empty q && not (improvable ()));
    if not (Queue.is_empty q) then begin
      process (Queue.pop q);
      loop ()
    end
    else if improvable () then begin
      ignore (improve_once t : bool);
      loop ()
    end
    else if not !eof then loop ()
    else snapshot_now t
  in
  (* The loop supervisor: bounded restarts with capped exponential
     backoff. [Fatal] (journaled-entry commit failure) is not
     restartable — the same entry would fail the same way. *)
  let backoff = ref 0.05 in
  let rec supervise () =
    match loop () with
    | () -> Ok ()
    | exception Fatal m -> Error ("fatal: " ^ m)
    | exception e ->
        if t.counters.restarts >= t.cfg.max_restarts then
          Error
            (Printf.sprintf "event loop failed after %d restarts: %s"
               t.counters.restarts (Printexc.to_string e))
        else begin
          t.counters.restarts <- t.counters.restarts + 1;
          Printf.eprintf "wgrap serve: event loop fault: %s; restart %d/%d in %.0f ms\n%!"
            (Printexc.to_string e) t.counters.restarts t.cfg.max_restarts
            (1000. *. !backoff);
          Unix.sleepf !backoff;
          backoff := Float.min 2. (!backoff *. 2.);
          supervise ()
        end
  in
  supervise ()

let serve_socket ?max_clients t ~path =
  (* A client that disconnects before reading its responses must not
     kill the service: with SIGPIPE ignored the write fails with EPIPE
     instead, which [run]'s respond treats as end-of-conversation. *)
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Transport.listen_unix ~path with
  | Error m -> Error m
  | Ok lfd ->
      let finally () = try Unix.close lfd with Unix.Unix_error _ -> () in
      let rec accept_loop served =
        match max_clients with
        | Some n when served >= n ->
            finally ();
            Ok ()
        | _ -> (
            match Transport.accept lfd ~timeout:t.cfg.idle_poll with
            | None ->
                (* between clients there is idle time too *)
                if State.pending t.state <> [] then ignore (improve_once t : bool);
                accept_loop served
            | Some client -> (
                let output = Unix.out_channel_of_descr client in
                let r = run t ~input:client ~output in
                (try Unix.close client with Unix.Unix_error _ -> ());
                match r with
                | Ok () -> accept_loop (served + 1)
                | Error _ as e ->
                    finally ();
                    e))
      in
      accept_loop 0

(* {1 Recovery} *)

let fold_entries state records =
  (* Replay verified journal payloads onto [state]. A CRC-valid record
     the fold cannot decode or commit poisons the journal: replay stops
     there forever, so anything appended after it — fsynced, acked, it
     does not matter — is unreachable by every future replay. The stop
     is reported (reason + how many records are stranded behind it),
     and callers must refuse to append past it rather than serve on.
     [last_seq] is the highest entry seq the journal holds, committed
     or snapshot-covered. *)
  let rec go n last = function
    | [] -> (n, last, None)
    | payload :: rest -> (
        match Event.decode_entry payload with
        | Error m ->
            (n, last, Some (Printf.sprintf "an undecodable entry (%s)" m, rest))
        | Ok entry ->
            let seq = Event.entry_seq entry in
            let last = max last seq in
            if seq <= State.applied state then go n last rest
            else
              match State.commit state entry with
              | Ok () -> go (n + 1) last rest
              | Error m ->
                  (n, last, Some (Printf.sprintf "seq %d (%s)" seq m, rest)))
  in
  go 0 0 records

let load_state cfg ~dir =
  let ( let* ) = Result.bind in
  let loaded = Durable.load ~dir in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun m -> notes := !notes @ [ m ]) fmt in
  if loaded.Durable.torn then note "journal: torn tail truncated";
  (match loaded.Durable.snapshot_error with
  | Some m -> note "snapshot rejected (%s); refolding journal from scratch" m
  | None -> ());
  let* base =
    match loaded.Durable.snapshot with
    | None -> State.create ~dim:cfg.dim ~delta_p:cfg.delta_p ~delta_r:cfg.delta_r ()
    | Some img -> (
        match State.decode img with
        | Ok st ->
            if
              State.dim st <> cfg.dim
              || State.delta_p st <> cfg.delta_p
              || State.delta_r st <> cfg.delta_r
            then
              Error
                (Printf.sprintf
                   "snapshot config (dim=%d delta-p=%d delta-r=%d) does not \
                    match the requested service config"
                   (State.dim st) (State.delta_p st) (State.delta_r st))
            else Ok st
        | Error m ->
            note "snapshot failed certification (%s); refolding journal" m;
            State.create ~dim:cfg.dim ~delta_p:cfg.delta_p ~delta_r:cfg.delta_r ())
  in
  let snap_seq = State.applied base in
  let replayed, last_seq, stopped = fold_entries base loaded.Durable.records in
  match stopped with
  | Some (what, stranded) ->
      (* serving on would append entries with seqs colliding with the
         stranded records — fsynced, acked, and lost on the next
         restart. Operator intervention, not silent loss. *)
      Error
        (Printf.sprintf
           "journal replay stopped at %s with %d record(s) stranded after \
            it; refusing to serve — events accepted now would be \
            unreachable by every future replay. Repair or archive %s and \
            restart"
           what
           (List.length stranded)
           (Durable.journal_path dir))
  | None ->
      if snap_seq > last_seq then
        (* the snapshot certifies events the journal no longer holds —
           the signature of a lost acked prefix (deleted or truncated
           journal). The fold oracle can never reach this state. *)
        Error
          (Printf.sprintf
             "snapshot is at seq %d but the journal only reaches seq %d: \
              acknowledged events are missing from the journal; refusing \
              to serve on a history that cannot be replayed"
             snap_seq last_seq)
      else begin
        note "replayed %d journal entries (state at seq %d)" replayed
          (State.applied base);
        Ok (base, !notes)
      end

let verify cfg ~dir =
  let ( let* ) = Result.bind in
  let loaded = Durable.load ~dir in
  let* folded =
    State.create ~dim:cfg.dim ~delta_p:cfg.delta_p ~delta_r:cfg.delta_r ()
  in
  let _, _, fold_stop = fold_entries folded loaded.Durable.records in
  let* () =
    match fold_stop with
    | Some (what, stranded) ->
        Error
          (Printf.sprintf
             "verify: POISONED journal — fold stopped at %s with %d \
              record(s) stranded after it"
             what (List.length stranded))
    | None -> Ok ()
  in
  let* resumed, notes = load_state cfg ~dir in
  if State.applied folded < State.applied resumed then
    (* the recovered state certifies events the journal can no longer
       replay — the exact signature of acked events lost past a tear,
       the one scenario this oracle exists to flag. [load_state] already
       refuses the common cases; this is the defensive backstop. *)
    Error
      (Printf.sprintf
         "verify: LOST PREFIX — snapshot state (seq %d) is ahead of the \
          journal fold (seq %d); acknowledged events are unreachable \
          (torn=%b)"
         (State.applied resumed) (State.applied folded) loaded.Durable.torn)
  else if State.encode folded = State.encode resumed then
    Ok
      (Printf.sprintf
         "verify: ok entries=%d seq=%d state-crc=%s torn=%b%s"
         (List.length loaded.Durable.records)
         (State.applied resumed) (State.crc resumed) loaded.Durable.torn
         (String.concat ""
            (List.map (fun n -> "\n  note: " ^ n) notes)))
  else
    Error
      (Printf.sprintf
         "verify: MISMATCH fold-crc=%s resume-crc=%s (fold seq %d, resume seq \
          %d)"
         (State.crc folded) (State.crc resumed) (State.applied folded)
         (State.applied resumed))
