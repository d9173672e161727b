(* The durable-state suite: canonical encodings round-trip bit for bit,
   snapshot/journal files survive crashes as designed (atomic replace,
   torn-tail truncation), recovery certification rejects every corrupt
   or stale checkpoint, and a resumed run reproduces the uninterrupted
   run's result exactly. *)

module Rng = Wgrap_util.Rng
module Crc32 = Wgrap_persist.Crc32
module Codec = Wgrap_persist.Codec
module Snapshot = Wgrap_persist.Snapshot
module Journal = Wgrap_persist.Journal
module Store = Wgrap_persist.Store
open Wgrap

let random_vec rng ~dim = Rng.dirichlet_sym rng ~alpha:0.4 ~dim

(* The run the certification tests write and load under unless they say
   otherwise: [Solver.cra]'s defaults. *)
let run_under objective = { Store.objective; candidates = 0; refine = true }

let coverage_run = run_under Objective.coverage
let coverage_fp = Store.fingerprint coverage_run

let random_instance ?(dim = 6) ?coi rng ~n_p ~n_r ~dp =
  let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
  Instance.create_exn ?coi
    ~papers:(Array.init n_p (fun _ -> random_vec rng ~dim))
    ~reviewers:(Array.init n_r (fun _ -> random_vec rng ~dim))
    ~delta_p:dp ~delta_r:dr ()

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "wgrap_persist_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A representative state with both assignments differing, a live RNG
   and an awkward float score. *)
let sample_state () =
  let best = Assignment.empty ~n_papers:3 in
  Assignment.add best ~paper:0 ~reviewer:2;
  Assignment.add best ~paper:0 ~reviewer:5;
  Assignment.add best ~paper:1 ~reviewer:0;
  Assignment.add best ~paper:2 ~reviewer:4;
  Assignment.add best ~paper:2 ~reviewer:1;
  let current = Assignment.copy best in
  Assignment.add current ~paper:1 ~reviewer:3;
  let rng = Rng.create 99 in
  ignore (Rng.bits64 rng);
  {
    Checkpoint.link = "sdga+sra";
    phase = Checkpoint.Sra_round 17;
    stall = 4;
    score = 0.1 +. (1. /. 3.);
    rng = Some (Rng.words rng);
    best;
    current;
  }

let check_state_equal msg (a : Checkpoint.state) (b : Checkpoint.state) =
  Alcotest.(check string) (msg ^ ": link") a.Checkpoint.link b.Checkpoint.link;
  Alcotest.(check bool)
    (msg ^ ": phase") true
    (a.Checkpoint.phase = b.Checkpoint.phase);
  Alcotest.(check int) (msg ^ ": stall") a.Checkpoint.stall b.Checkpoint.stall;
  Alcotest.(check bool)
    (msg ^ ": score bit-exact") true
    (Int64.equal
       (Int64.bits_of_float a.Checkpoint.score)
       (Int64.bits_of_float b.Checkpoint.score));
  Alcotest.(check bool) (msg ^ ": rng") true (a.Checkpoint.rng = b.Checkpoint.rng);
  (* Order-preserving equality matters for replay: compare the raw
     pair lists, not just the set-equality of [Assignment.equal]. *)
  Alcotest.(check bool)
    (msg ^ ": best pairs") true
    (Assignment.to_lines a.Checkpoint.best
    = Assignment.to_lines b.Checkpoint.best);
  Alcotest.(check bool)
    (msg ^ ": current pairs") true
    (Assignment.to_lines a.Checkpoint.current
    = Assignment.to_lines b.Checkpoint.current)

(* {1 CRC32 and codec} *)

let test_crc32_vector () =
  (* The standard IEEE 802.3 check value. *)
  Alcotest.(check int32) "check value" 0xcbf43926l (Crc32.digest "123456789");
  Alcotest.(check string) "hex" "cbf43926" (Crc32.hex "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest "");
  Alcotest.(check bool) "incremental = one-shot" true
    (Int32.equal
       (Crc32.update (Crc32.update 0l "12345") "6789")
       (Crc32.digest "123456789"))

let test_state_roundtrip () =
  let st = sample_state () in
  match Codec.decode_state (Codec.encode_state ~fingerprint:coverage_fp st) with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok (fp, st') ->
      Alcotest.(check (list (pair string string))) "fingerprint" coverage_fp fp;
      check_state_equal "roundtrip" st st'

let test_state_roundtrip_sdga () =
  (* SDGA phase: no RNG, current == best, partial groups. *)
  let best = Assignment.empty ~n_papers:4 in
  Assignment.add best ~paper:0 ~reviewer:1;
  Assignment.add best ~paper:3 ~reviewer:0;
  let st =
    {
      Checkpoint.link = "sdga";
      phase = Checkpoint.Sdga_stage 1;
      stall = 0;
      score = 0.25;
      rng = None;
      best;
      current = Assignment.copy best;
    }
  in
  match Codec.decode_state (Codec.encode_state ~fingerprint:coverage_fp st) with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok (_, st') -> check_state_equal "sdga roundtrip" st st'

let test_decode_rejects () =
  let good = Codec.encode_state ~fingerprint:coverage_fp (sample_state ()) in
  let expect_error name data =
    match Codec.decode_state data with
    | Ok _ -> Alcotest.fail (name ^ ": decoder accepted corrupt input")
    | Error msg ->
        Alcotest.(check bool) (name ^ ": has reason") true
          (String.length msg > 0)
  in
  expect_error "empty" "";
  expect_error "no trailing newline" (String.sub good 0 (String.length good - 1));
  expect_error "truncated" (String.sub good 0 (String.length good / 2));
  (let b = Bytes.of_string good in
   Bytes.set b (Bytes.length b / 3) '!';
   expect_error "flipped byte" (Bytes.to_string b));
  expect_error "trailing garbage" (good ^ "extra\n");
  expect_error "wrong magic"
    ("not-a-snapshot 1\n" ^ String.concat "\n" (List.tl (String.split_on_char '\n' good)))

let test_journal_line_roundtrip () =
  let events =
    [
      Checkpoint.Stage_done { stage = 2; score = 0.625 };
      Checkpoint.Round_improved { round = 41; score = 1. /. 7. };
      Checkpoint.Link_entered { link = "sdga+sra" };
    ]
  in
  List.iter
    (fun ev ->
      match Codec.decode_journal_line (Codec.journal_line ev) with
      | Ok ev' -> Alcotest.(check bool) "event roundtrip" true (ev = ev')
      | Error e -> Alcotest.fail ("journal decode failed: " ^ e))
    events;
  (match Codec.decode_journal_line "00000000\tstage 1 0x1p-1" with
  | Ok _ -> Alcotest.fail "accepted bad checksum"
  | Error _ -> ());
  match Codec.decode_journal_line "nonsense" with
  | Ok _ -> Alcotest.fail "accepted junk line"
  | Error _ -> ()

(* {1 Files: atomic snapshots and torn journals} *)

let test_snapshot_file_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "snap.wck" in
      let st = sample_state () in
      Snapshot.write ~fingerprint:coverage_fp ~path st;
      (match Snapshot.read path with
      | Ok (_, st') -> check_state_equal "file roundtrip" st st'
      | Error e -> Alcotest.fail (Snapshot.error_message e));
      (* Overwrite is atomic-replace: the second state fully wins. *)
      let st2 = { st with Checkpoint.score = 9.75; stall = 0 } in
      Snapshot.write ~fingerprint:coverage_fp ~path st2;
      match Snapshot.read path with
      | Ok (_, st') -> check_state_equal "replaced" st2 st'
      | Error e -> Alcotest.fail (Snapshot.error_message e))

let test_snapshot_missing_and_corrupt () =
  with_dir (fun dir ->
      let path = Filename.concat dir "snap.wck" in
      (match Snapshot.read path with
      | Error Snapshot.Missing -> ()
      | Error (Snapshot.Corrupt e) -> Alcotest.fail ("expected Missing: " ^ e)
      | Ok _ -> Alcotest.fail "read a snapshot from nothing");
      write_file path "wgrap-snapshot 1\nlink sdga\ngarbage\n";
      match Snapshot.read path with
      | Error (Snapshot.Corrupt _) -> ()
      | Error Snapshot.Missing -> Alcotest.fail "file exists"
      | Ok _ -> Alcotest.fail "accepted corrupt snapshot")

let test_journal_append_replay () =
  with_dir (fun dir ->
      let path = Filename.concat dir "j.wal" in
      (* Missing file: empty and untorn. *)
      let r = Journal.replay path in
      Alcotest.(check bool) "missing empty" true (r.Journal.events = []);
      Alcotest.(check bool) "missing untorn" false r.Journal.torn;
      let events =
        [
          Checkpoint.Link_entered { link = "sdga+sra" };
          Checkpoint.Stage_done { stage = 1; score = 0.5 };
          Checkpoint.Stage_done { stage = 2; score = 0.75 };
          Checkpoint.Round_improved { round = 3; score = 0.8 };
        ]
      in
      let w = Journal.open_writer path in
      List.iter (Journal.append w) events;
      Journal.close_writer w;
      let r = Journal.replay path in
      Alcotest.(check bool) "all replayed" true (r.Journal.events = events);
      Alcotest.(check bool) "untorn" false r.Journal.torn;
      Alcotest.(check (option (float 0.))) "last incumbent" (Some 0.8)
        (Journal.last_incumbent r.Journal.events);
      (* Append across writer reopen — a resumed run keeps the log. *)
      let w = Journal.open_writer path in
      Journal.append w (Checkpoint.Round_improved { round = 9; score = 0.9 });
      Journal.close_writer w;
      let r = Journal.replay path in
      Alcotest.(check int) "grew" 5 (List.length r.Journal.events);
      (* Torn tail: a partial last record is truncated, prefix kept. *)
      let data = read_file path in
      write_file path (String.sub data 0 (String.length data - 7));
      let r = Journal.replay path in
      Alcotest.(check int) "prefix kept" 4 (List.length r.Journal.events);
      Alcotest.(check bool) "torn flagged" true r.Journal.torn;
      Alcotest.(check (option (float 0.))) "floor from prefix" (Some 0.8)
        (Journal.last_incumbent r.Journal.events))

(* {1 Disk full} *)

module Persist_error = Wgrap_persist.Persist_error

let test_disk_full_wrap_maps () =
  let expect_disk_full name f =
    match Persist_error.wrap ~path:"/x/journal.wal" ~op:"appending" f with
    | _ -> Alcotest.failf "%s: expected Disk_full" name
    | exception Persist_error.Disk_full { path; op } ->
        Alcotest.(check string) (name ^ ": path kept") "/x/journal.wal" path;
        Alcotest.(check string) (name ^ ": op kept") "appending" op
  in
  expect_disk_full "ENOSPC errno" (fun () ->
      raise (Unix.Unix_error (Unix.ENOSPC, "write", "")));
  expect_disk_full "channel Sys_error" (fun () ->
      raise (Sys_error "j.wal: No space left on device"));
  expect_disk_full "quota Sys_error" (fun () ->
      raise (Sys_error "j.wal: Disk quota exceeded"));
  (* anything else passes through untouched *)
  (match Persist_error.wrap ~path:"p" ~op:"o" (fun () -> raise Exit) with
  | _ -> Alcotest.fail "expected Exit"
  | exception Exit -> ()
  | exception _ -> Alcotest.fail "wrap rewrote an unrelated exception");
  Alcotest.(check int) "passthrough result" 3
    (Persist_error.wrap ~path:"p" ~op:"o" (fun () -> 3))

let test_disk_full_chaos_on_journal () =
  (* the ENOSPC file image: committed prefix byte-intact, last record
     cut mid-line. Replay must keep every earlier record, flag the torn
     tail, and after a physical truncate the journal accepts appends
     again. *)
  let events =
    [
      Checkpoint.Link_entered { link = "sdga+sra" };
      Checkpoint.Stage_done { stage = 1; score = 0.25 };
      Checkpoint.Stage_done { stage = 2; score = 0.5 };
      Checkpoint.Round_improved { round = 1; score = 0.75 };
      Checkpoint.Round_improved { round = 2; score = 0.9 };
    ]
  in
  for seed = 0 to 9 do
    with_dir (fun dir ->
        let path = Filename.concat dir "j.wal" in
        let w = Journal.open_writer path in
        List.iter (Journal.append w) events;
        Journal.close_writer w;
        Chaos.corrupt_file ~rng:(Rng.create seed) Chaos.Disk_full path;
        let r = Journal.replay path in
        let n = List.length r.Journal.events in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: committed prefix survives" seed)
          true
          (n >= 4
          && r.Journal.events = List.filteri (fun i _ -> i < n) events);
        if not r.Journal.torn then
          Alcotest.(check int)
            (Printf.sprintf "seed %d: untorn only at a record boundary" seed)
            4 n;
        (* recover: cut the torn tail physically, then append *)
        let raw = Journal.Raw.replay path in
        Journal.Raw.truncate path raw.Journal.Raw.valid_bytes;
        let w = Journal.open_writer path in
        Journal.append w (Checkpoint.Round_improved { round = 3; score = 0.95 });
        Journal.close_writer w;
        let r2 = Journal.replay path in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: post-truncate journal clean" seed)
          false r2.Journal.torn;
        Alcotest.(check int)
          (Printf.sprintf "seed %d: recovered record count" seed)
          (n + 1)
          (List.length r2.Journal.events))
  done

(* /dev/full gives a real ENOSPC on flush without filling any disk;
   skip quietly on systems that lack it *)
let dev_full = "/dev/full"

let test_disk_full_real_enospc () =
  if Sys.file_exists dev_full then begin
    let oc = open_out_bin dev_full in
    Fun.protect ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
    @@ fun () ->
    match
      Persist_error.wrap ~path:dev_full ~op:"appending" (fun () ->
          output_string oc (String.make 65536 'x');
          flush oc)
    with
    | () -> Alcotest.fail "write to /dev/full unexpectedly succeeded"
    | exception Persist_error.Disk_full _ -> ()
  end

let test_disk_full_store_disables () =
  if Sys.file_exists dev_full then
    with_dir (fun dir ->
        (* the journal lives on a full volume from the start *)
        Unix.symlink dev_full (Store.journal_path dir);
        let store = Store.open_ ~run:coverage_run ~dir () in
        Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
        let sink = Store.sink store in
        (* must not raise — the store disables itself instead *)
        sink.Checkpoint.on_event
          (Checkpoint.Stage_done { stage = 1; score = 0.5 });
        sink.Checkpoint.offer (fun () -> sample_state ());
        Alcotest.(check bool) "store disabled, solve continues" true
          (Store.is_disabled store))

(* The atomic writer is fail-stop: when the temp image cannot be
   completed, the call raises Disk_full with its own op label, the live
   file keeps its old bytes and no temp entry is left behind. *)
let test_disk_full_atomic_writers () =
  if Sys.file_exists dev_full then
    let check name ~op write =
      with_dir (fun dir ->
          let path = Filename.concat dir "live" in
          write path `Old;
          let before = read_file path in
          Unix.symlink dev_full (path ^ ".tmp");
          (match write path `New with
          | () -> Alcotest.failf "%s: write through /dev/full succeeded" name
          | exception Persist_error.Disk_full { op = op'; _ } ->
              Alcotest.(check string) (name ^ ": op label") op op');
          Alcotest.(check string) (name ^ ": live file untouched") before
            (read_file path);
          Alcotest.(check (list string)) (name ^ ": no temp entry left")
            [ "live" ]
            (Array.to_list (Sys.readdir dir)))
    in
    check "blob" ~op:"writing blob" (fun path v ->
        Wgrap_persist.Blob.write ~path
          (match v with `Old -> "old payload" | `New -> "new payload"));
    check "snapshot" ~op:"writing snapshot" (fun path v ->
        let st = sample_state () in
        Snapshot.write ~fingerprint:coverage_fp ~path
          (match v with
          | `Old -> st
          | `New -> { st with Checkpoint.score = 9.75 }))

(* {1 Store certification} *)

let test_instance = lazy (random_instance (Rng.create 5) ~n_p:10 ~n_r:8 ~dp:3)

(* A genuine mid-SRA state for certification tests, captured live. *)
let captured_state =
  lazy
    (let inst = Lazy.force test_instance in
     let sink, _events, states = Checkpoint.memory () in
     ignore (Solver.cra ~ctx:(Ctx.make ~seed:1 ~checkpoint:sink ()) inst);
     match
       List.filter
         (fun st ->
           match st.Checkpoint.phase with
           | Checkpoint.Sra_round _ -> true
           | _ -> false)
         (states ())
     with
     | [] -> Alcotest.fail "no SRA states captured"
     | sts -> List.nth sts (List.length sts / 2))

let test_store_load_ok () =
  with_dir (fun dir ->
      let inst = Lazy.force test_instance in
      let st = Lazy.force captured_state in
      Snapshot.write ~fingerprint:coverage_fp ~path:(Store.snapshot_path dir) st;
      match Store.load ~dir ~run:coverage_run inst with
      | Ok st' -> check_state_equal "certified load" st st'
      | Error e -> Alcotest.fail (Store.load_error_message e))

let test_store_load_missing () =
  with_dir (fun dir ->
      match Store.load ~dir ~run:coverage_run (Lazy.force test_instance) with
      | Error Store.No_checkpoint -> ()
      | Error (Store.Invalid e) -> Alcotest.fail ("expected No_checkpoint: " ^ e)
      | Ok _ -> Alcotest.fail "loaded from empty dir")

let test_store_load_corrupt () =
  with_dir (fun dir ->
      let st = Lazy.force captured_state in
      let path = Store.snapshot_path dir in
      Snapshot.write ~fingerprint:coverage_fp ~path st;
      let data = read_file path in
      let b = Bytes.of_string data in
      Bytes.set b (Bytes.length b / 2) '#';
      write_file path (Bytes.to_string b);
      match Store.load ~dir ~run:coverage_run (Lazy.force test_instance) with
      | Error (Store.Invalid _) -> ()
      | Error Store.No_checkpoint -> Alcotest.fail "file exists"
      | Ok _ -> Alcotest.fail "certified a corrupt snapshot")

let test_store_load_wrong_instance () =
  (* Constraint re-validation: the snapshot's groups violate the other
     instance's COI, so certification must reject it. *)
  with_dir (fun dir ->
      let st = Lazy.force captured_state in
      Snapshot.write ~fingerprint:coverage_fp ~path:(Store.snapshot_path dir) st;
      let rng = Rng.create 5 in
      let coi =
        List.concat_map
          (fun p -> List.init 4 (fun r -> (p, r)))
          [ 0; 1; 2; 3; 4 ]
      in
      let other = random_instance ~coi rng ~n_p:10 ~n_r:8 ~dp:3 in
      match Store.load ~dir ~run:coverage_run other with
      | Error (Store.Invalid _) -> ()
      | Error Store.No_checkpoint -> Alcotest.fail "file exists"
      | Ok _ -> Alcotest.fail "certified against the wrong instance")

let test_store_load_score_mismatch () =
  with_dir (fun dir ->
      let st = Lazy.force captured_state in
      let lied = { st with Checkpoint.score = st.Checkpoint.score +. 0.5 } in
      Snapshot.write ~fingerprint:coverage_fp ~path:(Store.snapshot_path dir) lied;
      match Store.load ~dir ~run:coverage_run (Lazy.force test_instance) with
      | Error (Store.Invalid _) -> ()
      | _ -> Alcotest.fail "certified a snapshot with a lying objective")

let test_store_load_stale () =
  (* Journal knows a better incumbent than the snapshot: the snapshot
     is stale and must be rejected rather than silently losing work. *)
  with_dir (fun dir ->
      let st = Lazy.force captured_state in
      Snapshot.write ~fingerprint:coverage_fp ~path:(Store.snapshot_path dir) st;
      let w = Journal.open_writer (Store.journal_path dir) in
      Journal.append w
        (Checkpoint.Round_improved
           { round = 999; score = st.Checkpoint.score +. 0.1 });
      Journal.close_writer w;
      match Store.load ~dir ~run:coverage_run (Lazy.force test_instance) with
      | Error (Store.Invalid msg) ->
          Alcotest.(check bool) "mentions staleness" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "certified a stale snapshot")

(* A checkpoint certifies under the run's own objective. A min run's
   snapshots record the min value: loaded under min, the mid-SRA state
   certifies, and resuming from it replays the uninterrupted run's
   groups exactly. The resumed run is given another seed, which a fresh
   run would follow, so only the snapshot's RNG words can replay it. *)
let test_store_min_checkpoint_resumes () =
  let inst = Lazy.force test_instance in
  let objective = Objective.min_coverage in
  let run ~seed ?resume_from ?checkpoint () =
    match
      Solver.value
        (Solver.cra ~ctx:(Ctx.make ~seed ~objective ?checkpoint ?resume_from ()) inst)
    with
    | Some a -> Assignment.to_lines a
    | None -> Alcotest.fail "infeasible"
  in
  let sink, _events, states = Checkpoint.memory () in
  let expected = run ~seed:4 ~checkpoint:sink () in
  Alcotest.(check bool) "the other seed alone gives other groups" false
    (expected = run ~seed:9 ());
  let st =
    match
      List.filter
        (fun st ->
          match st.Checkpoint.phase with
          | Checkpoint.Sra_round _ -> true
          | Checkpoint.Sdga_stage _ -> false)
        (states ())
    with
    | [] -> Alcotest.fail "no SRA states captured"
    | sts -> List.nth sts (List.length sts / 2)
  in
  with_dir (fun dir ->
      Snapshot.write
        ~fingerprint:(Store.fingerprint (run_under objective))
        ~path:(Store.snapshot_path dir) st;
      match Store.load ~dir ~run:(run_under objective) inst with
      | Error e -> Alcotest.fail (Store.load_error_message e)
      | Ok st ->
          Alcotest.(check (list string)) "resumed min run = uninterrupted"
            expected
            (run ~seed:9 ~resume_from:(Ok st) ()))

(* A coverage checkpoint is not a checkpoint of a min run: loading it
   under min reports the mismatch. *)
let test_store_load_other_objective () =
  with_dir (fun dir ->
      let inst = Lazy.force test_instance in
      Snapshot.write ~fingerprint:coverage_fp ~path:(Store.snapshot_path dir) (Lazy.force captured_state);
      match Store.load ~dir ~run:(run_under Objective.min_coverage) inst with
      | Error (Store.Invalid msg) ->
          Alcotest.(check bool) ("min: " ^ msg) true
            (String.starts_with ~prefix:"objective mismatch" msg)
      | Error Store.No_checkpoint -> Alcotest.fail "file exists"
      | Ok _ -> Alcotest.fail "certified a coverage checkpoint under min")

(* Each field of the run fingerprint pins the run on its own: a
   snapshot loaded under a run that differs in one field is discarded
   with a reason naming that field. *)
let test_store_fingerprint_fields () =
  with_dir (fun dir ->
      let inst = Lazy.force test_instance in
      Snapshot.write ~fingerprint:coverage_fp ~path:(Store.snapshot_path dir)
        (Lazy.force captured_state);
      List.iter
        (fun (field, run) ->
          match Store.load ~dir ~run inst with
          | Error (Store.Invalid msg) ->
              Alcotest.(check bool) (field ^ ": " ^ msg) true
                (String.starts_with ~prefix:(field ^ " mismatch") msg)
          | Error Store.No_checkpoint -> Alcotest.fail "file exists"
          | Ok _ -> Alcotest.failf "resumed across a %s change" field)
        [
          ("candidates", { coverage_run with candidates = 4 });
          ("refine", { coverage_run with refine = false });
          (* rejected on the fingerprint, before any shape check *)
          ("objective", run_under (Objective.blend [| [| 0.5 |] |]));
        ]);
  (* Nothing else pins the run: the job count never changes a result. *)
  Alcotest.(check (list string))
    "fingerprint fields" [ "objective"; "candidates"; "refine" ]
    (List.map fst coverage_fp);
  (* The objective field digests the payload: blends that differ only in
     lambda, or in one preference cell, fingerprint apart. *)
  let objective_of spec = List.assoc "objective" (Store.fingerprint (run_under spec)) in
  let prefs () = Array.make_matrix 3 4 0.25 in
  let base = objective_of (Objective.blend ~lambda:0.7 (prefs ())) in
  Alcotest.(check string) "equal payloads agree" base
    (objective_of (Objective.blend ~lambda:0.7 (prefs ())));
  Alcotest.(check bool) "lambda moves it" false
    (String.equal base (objective_of (Objective.blend ~lambda:0.6 (prefs ()))));
  let bumped = prefs () in
  bumped.(2).(3) <- Float.succ 0.25;
  Alcotest.(check bool) "one preference cell moves it" false
    (String.equal base (objective_of (Objective.blend ~lambda:0.7 bumped)))

(* A version-2 snapshot (the format that pinned the SRA chain count) is
   never resumed, even with a valid checksum and this run's other
   fields: one written at several jobs could hold a multi-chain winner
   that no run reaches any more. *)
let test_store_rejects_v2 () =
  with_dir (fun dir ->
      let v2 =
        Codec.encode_state ~fingerprint:(coverage_fp @ [ ("chains", "2") ])
          (Lazy.force captured_state)
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"crc " l))
        |> List.mapi (fun i l -> if i = 0 then Codec.magic ^ " 2" else l)
        |> List.map (fun l -> l ^ "\n")
        |> String.concat ""
      in
      write_file (Store.snapshot_path dir) (v2 ^ "crc " ^ Crc32.hex v2 ^ "\n");
      match Store.load ~dir ~run:coverage_run (Lazy.force test_instance) with
      | Error (Store.Invalid msg) ->
          Alcotest.(check string) "reason" "snapshot: unsupported snapshot version 2" msg
      | Error Store.No_checkpoint -> Alcotest.fail "file exists"
      | Ok _ -> Alcotest.fail "resumed a version-2 snapshot")

(* The CLI repro: a quick-preset checkpoint written at --candidates 16
   and resumed with --candidates 32 used to resume (and finish below a
   fresh k = 32 run). It must be discarded, naming the width, and the
   run must write exactly the fresh k = 32 TSV. *)
let test_cli_width_resume () =
  with_dir (fun dir ->
      let tsv name = Filename.concat dir name in
      let assign ~k extra =
        let code, log =
          Cli.run
            ([ "assign"; "--preset"; "quick"; "--seed"; "2015"; "--candidates"; k ]
            @ extra)
        in
        Alcotest.(check int) ("exit code\n" ^ log) 0 code;
        log
      in
      let checkpointed = [ "--checkpoint-dir"; dir; "--checkpoint-every"; "1r" ] in
      ignore (assign ~k:"16" (checkpointed @ [ "--out"; tsv "k16.tsv" ]));
      let log = assign ~k:"32" (checkpointed @ [ "--resume"; "--out"; tsv "resumed.tsv" ]) in
      ignore (assign ~k:"32" [ "--out"; tsv "fresh.tsv" ]);
      Alcotest.(check bool) ("reports the discard\n" ^ log) true
        (List.exists
           (String.starts_with
              ~prefix:"  - checkpoint: discarded (candidates mismatch: checkpoint has 16, run has 32)")
           (String.split_on_char '\n' log));
      Alcotest.(check string) "resumed TSV = fresh k = 32 TSV"
        (read_file (tsv "fresh.tsv"))
        (read_file (tsv "resumed.tsv")))

let test_store_sink_writes () =
  with_dir (fun dir ->
      let inst = Lazy.force test_instance in
      (* Every_rounds 1: take every offer, so the final snapshot is the
         last round boundary. *)
      let store = Store.open_ ~cadence:(Store.Every_rounds 1) ~fresh:true ~run:coverage_run ~dir () in
      let outcome = Solver.cra ~ctx:(Ctx.make ~seed:3 ~checkpoint:(Store.sink store) ()) inst in
      Store.close store;
      let a =
        match Solver.value outcome with
        | Some a -> a
        | None -> Alcotest.fail "solver infeasible"
      in
      (match Store.load ~dir ~run:coverage_run inst with
      | Ok st ->
          Alcotest.(check bool) "stored best is valid" true
            (Assignment.validate inst st.Checkpoint.best = Ok ());
          Alcotest.(check bool) "stored best <= final" true
            (st.Checkpoint.score <= Assignment.coverage inst a +. 1e-9)
      | Error e -> Alcotest.fail (Store.load_error_message e));
      let r = Journal.replay (Store.journal_path dir) in
      Alcotest.(check bool) "journal has events" true (r.Journal.events <> []);
      Alcotest.(check bool) "journal untorn" false r.Journal.torn;
      (* [fresh:true] wipes both files for a from-scratch run. *)
      let store = Store.open_ ~fresh:true ~run:coverage_run ~dir () in
      Store.close store;
      Alcotest.(check bool) "fresh wiped snapshot" true
        (Store.load ~dir ~run:coverage_run inst = Error Store.No_checkpoint))

(* {1 Determinism and resume} *)

let test_seeded_determinism () =
  let inst = Lazy.force test_instance in
  let a =
    match Solver.value (Solver.cra ~ctx:(Ctx.make ~seed:42 ()) inst) with
    | Some a -> a
    | None -> Alcotest.fail "infeasible"
  and b =
    match Solver.value (Solver.cra ~ctx:(Ctx.make ~seed:42 ()) inst) with
    | Some a -> a
    | None -> Alcotest.fail "infeasible"
  in
  Alcotest.(check bool) "identical groups" true
    (Assignment.to_lines a = Assignment.to_lines b);
  let c =
    match Solver.value (Solver.cra ~ctx:(Ctx.make ~seed:43 ()) inst) with
    | Some a -> a
    | None -> Alcotest.fail "infeasible"
  in
  (* Not a hard guarantee, but on this instance the seeds diverge —
     guards against the seed being ignored. *)
  Alcotest.(check bool) "seed actually used" false
    (Assignment.to_lines a = Assignment.to_lines c
    && Assignment.coverage inst a <> Assignment.coverage inst c)

let uninterrupted_objective inst ~seed =
  match Solver.value (Solver.cra ~ctx:(Ctx.make ~seed ()) inst) with
  | Some a -> Assignment.coverage inst a
  | None -> Alcotest.fail "infeasible"

let resume_and_check ?(through_files = false) inst ~seed st =
  let expected = uninterrupted_objective inst ~seed in
  let st =
    if not through_files then st
    else
      (* Round-trip the state through the real on-disk pipeline so the
         replay equality also certifies the codec. *)
      with_dir (fun dir ->
          Snapshot.write ~fingerprint:coverage_fp ~path:(Store.snapshot_path dir) st;
          match Store.load ~dir ~run:coverage_run inst with
          | Ok st -> st
          | Error e -> Alcotest.fail (Store.load_error_message e))
  in
  let resumed =
    match Solver.value (Solver.cra ~ctx:(Ctx.make ~seed ~resume_from:(Ok st) ()) inst) with
    | Some a -> Assignment.coverage inst a
    | None -> Alcotest.fail "resume infeasible"
  in
  Alcotest.(check bool)
    (Printf.sprintf "resumed objective bit-exact (%s)"
       (Format.asprintf "%a" Checkpoint.pp_phase st.Checkpoint.phase))
    true
    (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float resumed))

let captured_states inst ~seed =
  let sink, _events, states = Checkpoint.memory () in
  ignore (Solver.cra ~ctx:(Ctx.make ~seed ~checkpoint:sink ()) inst);
  states ()

let test_resume_mid_sra_memory () =
  let inst = Lazy.force test_instance in
  let seed = 7 in
  let sra_states =
    List.filter
      (fun st ->
        match st.Checkpoint.phase with
        | Checkpoint.Sra_round _ -> true
        | _ -> false)
      (captured_states inst ~seed)
  in
  Alcotest.(check bool) "captured SRA states" true (sra_states <> []);
  (* Early, middle and late kill points. *)
  let n = List.length sra_states in
  List.iter
    (fun i -> resume_and_check inst ~seed (List.nth sra_states i))
    (List.sort_uniq compare [ 0; n / 2; n - 1 ])

let test_resume_mid_sra_through_files () =
  let inst = Lazy.force test_instance in
  let seed = 7 in
  let sra_states =
    List.filter
      (fun st ->
        match st.Checkpoint.phase with
        | Checkpoint.Sra_round _ -> true
        | _ -> false)
      (captured_states inst ~seed)
  in
  let n = List.length sra_states in
  resume_and_check ~through_files:true inst ~seed (List.nth sra_states (n / 2))

let test_resume_mid_sdga () =
  let inst = Lazy.force test_instance in
  let seed = 7 in
  let sdga_states =
    List.filter
      (fun st ->
        match (st.Checkpoint.link, st.Checkpoint.phase) with
        | "sdga+sra", Checkpoint.Sdga_stage k -> k < inst.Instance.delta_p
        | _ -> false)
      (captured_states inst ~seed)
  in
  Alcotest.(check bool) "captured mid-SDGA states" true (sdga_states <> []);
  resume_and_check ~through_files:true inst ~seed (List.hd sdga_states)

let test_resume_rejected_checkpoint () =
  let inst = Lazy.force test_instance in
  match Solver.cra ~ctx:(Ctx.make ~seed:7 ~resume_from:(Error "crc mismatch") ()) inst with
  | Solver.Degraded (a, reasons) ->
      Alcotest.(check bool) "valid" true (Assignment.validate inst a = Ok ());
      Alcotest.(check bool) "stale reason reported" true
        (List.exists
           (function Solver.Stale_checkpoint _ -> true | _ -> false)
           reasons);
      (* Fresh fallback with the same seed re-earns the incumbent. *)
      let expected = uninterrupted_objective inst ~seed:7 in
      Alcotest.(check (float 1e-12)) "same objective as fresh" expected
        (Assignment.coverage inst a)
  | Solver.Complete _ -> Alcotest.fail "stale checkpoint not reported"
  | Solver.Infeasible e -> Alcotest.fail e

let test_describe_exn_backtrace () =
  let was = Printexc.backtrace_status () in
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace was)
    (fun () ->
      Printexc.record_backtrace true;
      let msg =
        try failwith "boom" with e -> Solver.describe_exn e
      in
      Alcotest.(check bool) "message first" true
        (String.length msg >= 4 && String.sub msg 0 4 = "boom"
        || (* Failure printer may wrap it *)
        String.length msg > 0);
      (* With recording off, no backtrace text is appended. *)
      Printexc.record_backtrace false;
      let plain = try failwith "boom" with e -> Solver.describe_exn e in
      Alcotest.(check bool) "no newline when off" false
        (String.contains plain '\n'))

let () =
  Alcotest.run "persist"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_vector;
          Alcotest.test_case "state roundtrip (sra)" `Quick test_state_roundtrip;
          Alcotest.test_case "state roundtrip (sdga)" `Quick
            test_state_roundtrip_sdga;
          Alcotest.test_case "decoder rejects corruption" `Quick
            test_decode_rejects;
          Alcotest.test_case "journal line roundtrip" `Quick
            test_journal_line_roundtrip;
        ] );
      ( "files",
        [
          Alcotest.test_case "snapshot roundtrip + replace" `Quick
            test_snapshot_file_roundtrip;
          Alcotest.test_case "snapshot missing/corrupt" `Quick
            test_snapshot_missing_and_corrupt;
          Alcotest.test_case "journal append/replay/torn" `Quick
            test_journal_append_replay;
        ] );
      ( "disk-full",
        [
          Alcotest.test_case "wrap maps out-of-space failures" `Quick
            test_disk_full_wrap_maps;
          Alcotest.test_case "ENOSPC journal image replays" `Quick
            test_disk_full_chaos_on_journal;
          Alcotest.test_case "real ENOSPC raises Disk_full" `Quick
            test_disk_full_real_enospc;
          Alcotest.test_case "store disables on full disk" `Quick
            test_disk_full_store_disables;
          Alcotest.test_case "atomic writers roll back" `Quick
            test_disk_full_atomic_writers;
        ] );
      ( "certification",
        [
          Alcotest.test_case "certified load" `Quick test_store_load_ok;
          Alcotest.test_case "no checkpoint" `Quick test_store_load_missing;
          Alcotest.test_case "corrupt rejected" `Quick test_store_load_corrupt;
          Alcotest.test_case "wrong instance rejected" `Quick
            test_store_load_wrong_instance;
          Alcotest.test_case "score mismatch rejected" `Quick
            test_store_load_score_mismatch;
          Alcotest.test_case "stale vs journal rejected" `Quick
            test_store_load_stale;
          Alcotest.test_case "store sink writes" `Quick test_store_sink_writes;
          Alcotest.test_case "fingerprint fields pin the run" `Quick
            test_store_fingerprint_fields;
          Alcotest.test_case "version-2 snapshot rejected" `Quick
            test_store_rejects_v2;
          Alcotest.test_case "k=16 checkpoint discarded under k=32 (CLI)" `Quick
            test_cli_width_resume;
          Alcotest.test_case "min checkpoint resumes under min" `Quick
            test_store_min_checkpoint_resumes;
          Alcotest.test_case "coverage checkpoint rejected under min"
            `Quick test_store_load_other_objective;
        ] );
      ( "resume",
        [
          Alcotest.test_case "seeded determinism" `Quick test_seeded_determinism;
          Alcotest.test_case "mid-SRA resume (memory)" `Quick
            test_resume_mid_sra_memory;
          Alcotest.test_case "mid-SRA resume (files)" `Quick
            test_resume_mid_sra_through_files;
          Alcotest.test_case "mid-SDGA resume (files)" `Quick
            test_resume_mid_sdga;
          Alcotest.test_case "rejected checkpoint degrades" `Quick
            test_resume_rejected_checkpoint;
          Alcotest.test_case "describe_exn backtraces" `Quick
            test_describe_exn_backtrace;
        ] );
    ]
