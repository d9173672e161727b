module Checkpoint = Wgrap.Checkpoint
module Assignment = Wgrap.Assignment
module Instance = Wgrap.Instance
module Objective = Wgrap.Objective
module Timer = Wgrap_util.Timer

type cadence = Every_seconds of float | Every_rounds of int

type run = {
  objective : Objective.spec;
  candidates : int;
  refine : bool;
}

(* The objective's name, plus an MD5 over its payload when it has one.
   Every float is printed with %h, so two payloads fingerprint alike
   only if they are equal bit for bit. *)
let objective_fingerprint spec =
  let digest lines =
    Objective.name spec ^ ":" ^ Digest.to_hex (Digest.string (String.concat "\n" lines))
  in
  let floats row = String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list row)) in
  match spec with
  | Objective.Coverage | Objective.Min -> Objective.name spec
  | Objective.Blend { preferences; lambda } ->
      digest (Printf.sprintf "%h" lambda :: List.map floats (Array.to_list preferences))

let fingerprint r =
  [
    ("objective", objective_fingerprint r.objective);
    ("candidates", string_of_int r.candidates);
    ("refine", string_of_bool r.refine);
  ]

let snapshot_path dir = Filename.concat dir "snapshot.wck"
let journal_path dir = Filename.concat dir "journal.wal"

type t = {
  dir : string;
  cadence : cadence;
  fingerprint : Codec.fingerprint;
  mutable journal : Journal.writer option;
  mutable offers_since_write : int;
  mutable last_write : float;
  mutable best_written : float;
  mutable dirty : bool;  (** an improvement event since the last snapshot *)
  mutable disabled : bool;
}

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?(cadence = Every_seconds 5.) ?(fresh = false) ~run ~dir () =
  mkdir_p dir;
  if fresh then begin
    (try Sys.remove (snapshot_path dir) with Sys_error _ -> ());
    (try Sys.remove (journal_path dir) with Sys_error _ -> ())
  end;
  {
    dir;
    cadence;
    fingerprint = fingerprint run;
    journal = Some (Journal.open_writer (journal_path dir));
    offers_since_write = 0;
    last_write = Timer.now ();
    best_written = neg_infinity;
    dirty = false;
    disabled = false;
  }

(* Checkpointing is strictly best-effort: a full disk or yanked volume
   disables the store (with one stderr warning) and the solve carries
   on un-checkpointed. The store must never be the reason a run dies. *)
let disable t msg =
  if not t.disabled then begin
    t.disabled <- true;
    (match t.journal with
    (* best-effort: the store is being disabled because I/O already
       failed; a second failure while closing has nothing to add.
       Audited for serve mode (PR 6): the original failure is recorded
       in [t.disabled] (queryable via {!is_disabled}) before this
       swallow runs, so the failed fsync is never re-branded a
       success. *)
    | Some w -> ( (try Journal.close_writer w with _ -> ()) [@wgrap.allow "silent-catch"])
    | None -> ());
    t.journal <- None;
    Printf.eprintf "wgrap: checkpointing disabled: %s\n%!" msg
  end

let close t =
  (match t.journal with
  (* best-effort: checkpointing must never be the reason a run dies,
     and on close the journal's data is already fsynced per append.
     Audited for serve mode (PR 6): this swallow is safe precisely
     because append fsyncs — close never carries unflushed data — and
     because a snapshot whose fsync failed has already flipped
     [t.disabled] via [offer]'s handler, so a failure here cannot
     retroactively turn into a silent success. Service-mode callers
     must consult {!is_disabled} before trusting the store's record. *)
  | Some w -> ( (try Journal.close_writer w with _ -> ()) [@wgrap.allow "silent-catch"])
  | None -> ());
  t.journal <- None

let is_disabled t = t.disabled

let on_event t e =
  if not t.disabled then begin
    (match Checkpoint.event_score e with
    | Some s when s > t.best_written -> t.dirty <- true
    | _ -> ());
    match t.journal with
    | None -> ()
    | Some w -> (
        try Journal.append w e with
        | Persist_error.Disk_full _ as e -> disable t (Persist_error.describe e)
        | Sys_error m -> disable t m
        | Unix.Unix_error (err, _, _) -> disable t (Unix.error_message err))
  end

let offer t mk =
  if not t.disabled then begin
    t.offers_since_write <- t.offers_since_write + 1;
    let due =
      t.dirty
      (* improvements snapshot immediately, keeping the snapshot in
         lock-step with the journaled incumbent *)
      ||
      match t.cadence with
      | Every_rounds r -> t.offers_since_write >= r
      | Every_seconds s -> Timer.now () -. t.last_write >= s
    in
    if due then (
      try
        let st = mk () in
        Snapshot.write ~fingerprint:t.fingerprint ~path:(snapshot_path t.dir) st;
        t.offers_since_write <- 0;
        t.last_write <- Timer.now ();
        t.best_written <- st.Checkpoint.score;
        t.dirty <- false
      with
      | Persist_error.Disk_full _ as e -> disable t (Persist_error.describe e)
      | Sys_error m -> disable t m
      | Unix.Unix_error (err, _, _) -> disable t (Unix.error_message err))
  end

let sink t = { Checkpoint.on_event = on_event t; offer = offer t }

(* {1 Recovery} *)

type load_error = No_checkpoint | Invalid of string

let load_error_message = function
  | No_checkpoint -> "no checkpoint found"
  | Invalid m -> m

let ( let* ) = Result.bind

(* A checkpoint resumes only the run it was written by: a field that
   differs (another candidate width, say) would resume a search that
   the fresh run never makes. *)
let check_fingerprint ~run recorded =
  let has field = List.assoc_opt field recorded in
  match List.find_opt (fun (field, want) -> has field <> Some want) (fingerprint run) with
  | None -> Ok ()
  | Some (field, want) ->
      Error
        (Printf.sprintf "%s mismatch: checkpoint has %s, run has %s" field
           (Option.value (has field) ~default:"none")
           want)

(* Self-certification: a snapshot is only trusted after (a) its CRC and
   version checks (done by {!Snapshot.read}) and the run fingerprint
   check, (b) constraint validation
   of both assignments against the live instance — full validation for
   complete phases, partial for mid-SDGA states — and (c) the recorded
   objective matching a recomputation within 1e-9 under the run's own
   objective, which is what the solvers record: a checkpoint written
   under another objective fails here. Anything less and the caller
   must run fresh. *)
let certify ~objective inst (st : Checkpoint.state) =
  let validate =
    match st.phase with
    | Checkpoint.Sdga_stage _ -> Assignment.validate_partial
    | Checkpoint.Sra_round _ -> Assignment.validate
  in
  let* () =
    match st.phase with
    | Checkpoint.Sdga_stage k when k < 0 || k > inst.Instance.delta_p ->
        Error (Printf.sprintf "stage %d out of range" k)
    | _ -> Ok ()
  in
  let* () =
    Result.map_error (fun m -> "best assignment: " ^ m) (validate inst st.best)
  in
  let* () =
    Result.map_error
      (fun m -> "current assignment: " ^ m)
      (validate inst st.current)
  in
  let recomputed = Objective.value (Objective.bind objective inst) st.best in
  if Float.abs (recomputed -. st.score) > 1e-9 then
    Error
      (Printf.sprintf
         "objective mismatch: snapshot records %.12g, recomputed %.12g"
         st.score recomputed)
  else Ok ()

let load ~dir ~run inst =
  match Snapshot.read (snapshot_path dir) with
  | Error Snapshot.Missing -> Error No_checkpoint
  | Error (Snapshot.Corrupt m) -> Error (Invalid ("snapshot: " ^ m))
  | Ok (recorded, st) -> (
      match
        let* () = check_fingerprint ~run recorded in
        certify ~objective:run.objective inst st
      with
      | Error m -> Error (Invalid m)
      | Ok () -> (
          let { Journal.events; torn = _ } = Journal.replay (journal_path dir) in
          match Journal.last_incumbent events with
          | Some j when j > st.Checkpoint.score +. 1e-9 ->
              (* The journal promised an incumbent the snapshot predates;
                 resuming from the snapshot could end below that promise.
                 A fresh (deterministic, same-seed) run re-earns it. *)
              Error
                (Invalid
                   (Printf.sprintf
                      "stale snapshot: journal incumbent %.12g beats snapshot \
                       %.12g"
                      j st.Checkpoint.score))
          | _ -> Ok st))
