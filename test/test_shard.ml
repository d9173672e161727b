(* The shard-supervision suite: sharded solving matches unsharded
   quality fault-free across many seeds, every chaos fault class ends in
   a valid (possibly Degraded) answer rather than a crash, exhausted
   retries reach the greedy backstop, checkpointed runs resume
   bit-identically — including after a real SIGKILL mid-shard — and the
   partition/merge invariants hold. *)

module Rng = Wgrap_util.Rng
module Store = Wgrap_persist.Store
module Sup = Shard.Supervisor
module Partition = Shard.Partition
module Merge = Shard.Merge
open Wgrap

let random_vec rng ~dim = Rng.dirichlet_sym rng ~alpha:0.4 ~dim

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
        (Printf.sprintf "wgrap_shard_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

(* shard stores nest one directory per shard — remove recursively *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  n = 0 || scan 0

let ctx ?budget ~seed () = Solver.Ctx.make ?budget ~seed ()

let value_exn outcome =
  match Solver.value outcome with
  | Some a -> a
  | None -> Alcotest.fail "outcome carries no assignment"

let check_valid msg inst a =
  match Assignment.validate inst a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid assignment: %s" msg e

let pp_prov p = Format.asprintf "%a" Summary.pp_shard_provenance p

(* {1 parity: sharded vs unsharded, fault-free, many seeds} *)

let test_parity_many_seeds () =
  for seed = 0 to 69 do
    let rng = Rng.create (1000 + seed) in
    let n_p = 12 + Rng.int rng 16 in
    let n_r = 30 + Rng.int rng 50 in
    let inst = random_instance rng ~n_p ~n_r ~dp:2 in
    let o1, _ = Sup.solve ~ctx:(ctx ~seed ()) ~shards:1 inst in
    let o4, prov = Sup.solve ~ctx:(ctx ~seed ()) ~shards:4 inst in
    let a1 = value_exn o1 and a4 = value_exn o4 in
    check_valid (Printf.sprintf "seed %d shards=1" seed) inst a1;
    check_valid (Printf.sprintf "seed %d shards=4" seed) inst a4;
    (match (o1, o4) with
    | Solver.Complete _, Solver.Complete _ -> ()
    | _ ->
        Alcotest.failf "seed %d: fault-free runs must be Complete (%s / %s)"
          seed (Solver.status o1) (Solver.status o4));
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: one provenance record per shard" seed)
      true
      (List.length prov >= 1 && List.length prov <= 4);
    let c1 = Assignment.coverage inst a1
    and c4 = Assignment.coverage inst a4 in
    if c4 < 0.95 *. c1 then
      Alcotest.failf "seed %d: sharded objective %.6f < 0.95 x unsharded %.6f"
        seed c4 c1
  done

(* Partition quality at preset scale: the quick preset (3000 reviewers
   x 300 papers), k = 16, seed 2015, refinement off. Both legs run
   through the supervisor, so shards=1 is the unsharded baseline on the
   same code path; shards=4 must keep >= 0.97x its coverage. *)
let test_preset_shard_ratio () =
  let inst =
    Dataset.Synthetic.instance_of_preset ~seed:2015
      Dataset.Synthetic.quick_preset
  in
  let config = { Sup.default_config with Sup.refine = false } in
  let coverage shards =
    let ctx = Solver.Ctx.make ~seed:2015 ~candidates:16 () in
    let o, _ = Sup.solve ~config ~ctx ~shards inst in
    let a = value_exn o in
    check_valid (Printf.sprintf "shards=%d" shards) inst a;
    Assignment.coverage inst a
  in
  let c1 = coverage 1 in
  let c4 = coverage 4 in
  Printf.printf "shards=4 / shards=1 coverage ratio %.6f\n" (c4 /. c1);
  if c4 < 0.97 *. c1 then
    Alcotest.failf "shards=4 coverage %.6f < 0.97 x shards=1 %.6f" c4 c1

let test_sharded_deterministic () =
  let rng = Rng.create 77 in
  let inst = random_instance rng ~n_p:24 ~n_r:60 ~dp:2 in
  let run () =
    let o, _ = Sup.solve ~ctx:(ctx ~seed:5 ()) ~shards:3 inst in
    Assignment.to_lines (value_exn o)
  in
  Alcotest.(check bool) "same seed, same bytes" true (run () = run ())

let test_more_shards_than_papers () =
  let rng = Rng.create 3 in
  let inst = random_instance rng ~n_p:4 ~n_r:12 ~dp:2 in
  let o, prov = Sup.solve ~ctx:(ctx ~seed:1 ()) ~shards:64 inst in
  check_valid "shards > papers" inst (value_exn o);
  Alcotest.(check bool) "shard count clamped" true (List.length prov <= 4)

(* {1 chaos fault classes} *)

let fault_classes =
  [ ("crash", Sup.Crash); ("hang", Sup.Hang); ("invalid", Sup.Invalid_result) ]

let test_fault_classes () =
  List.iter
    (fun (name, fault) ->
      let rng = Rng.create 11 in
      let inst = random_instance rng ~n_p:18 ~n_r:48 ~dp:2 in
      let config =
        {
          Sup.default_config with
          Sup.inject =
            Some
              (fun ~shard ~attempt ->
                if shard = 0 && attempt = 0 then Some fault else None);
        }
      in
      (* generous budget: the Hang fault's sleep is bounded at 2 s, and
         the clean retries must never time out on an instance this size *)
      let o, prov =
        Sup.solve ~config ~ctx:(ctx ~budget:30. ~seed:2 ()) ~shards:3 inst
      in
      (match o with
      | Solver.Degraded (_, reasons) ->
          Alcotest.(check bool)
            (name ^ ": reasons recorded") true (reasons <> [])
      | Solver.Complete _ -> Alcotest.failf "%s: fault left no trace" name
      | Solver.Infeasible m -> Alcotest.failf "%s: infeasible: %s" name m);
      check_valid (name ^ ": merged result") inst (value_exn o);
      match prov with
      | ({ Summary.shard = 0; attempts; shard_status; _ } as p) :: _ ->
          Alcotest.(check bool) (name ^ ": retried") true (attempts >= 2);
          (match shard_status with
          | Summary.Shard_degraded _ -> ()
          | _ ->
              Alcotest.failf "%s: expected degraded provenance, got %s" name
                (pp_prov p))
      | _ -> Alcotest.fail (name ^ ": missing shard 0 provenance"))
    fault_classes

let test_exhausted_retries_fall_back () =
  let rng = Rng.create 21 in
  let inst = random_instance rng ~n_p:15 ~n_r:40 ~dp:2 in
  let config =
    {
      Sup.default_config with
      Sup.retries = 1;
      inject =
        Some
          (fun ~shard ~attempt:_ -> if shard = 1 then Some Sup.Crash else None);
    }
  in
  let o, prov = Sup.solve ~config ~ctx:(ctx ~seed:9 ()) ~shards:3 inst in
  (match o with
  | Solver.Degraded _ -> ()
  | _ ->
      Alcotest.failf "backstop run must be Degraded, got %s" (Solver.status o));
  check_valid "backstop merge" inst (value_exn o);
  match List.find_opt (fun p -> p.Summary.shard = 1) prov with
  | Some { Summary.shard_status = Summary.Shard_fallback _; attempts; _ } ->
      Alcotest.(check int) "all attempts burned" 2 attempts
  | Some p -> Alcotest.failf "expected fallback provenance, got %s" (pp_prov p)
  | None -> Alcotest.fail "missing shard 1 provenance"

let test_chaos_plan_never_aborts () =
  (* the Dataset.Chaos shard plan across several seeds: whatever strikes,
     the answer is valid and never Infeasible *)
  for seed = 0 to 11 do
    let rng = Rng.create (300 + seed) in
    let inst = random_instance rng ~n_p:12 ~n_r:30 ~dp:2 in
    let plan =
      Dataset.Chaos.shard_plan
        ~rng:(Rng.create (900 + seed))
        ~shards:3 ~faults:Dataset.Chaos.shard_faults
    in
    let inject ~shard ~attempt =
      match plan ~shard ~attempt with
      | None -> None
      | Some Dataset.Chaos.Shard_crash -> Some Sup.Crash
      | Some Dataset.Chaos.Shard_hang -> Some Sup.Hang
      | Some Dataset.Chaos.Shard_invalid -> Some Sup.Invalid_result
    in
    let config = { Sup.default_config with Sup.inject = Some inject } in
    let o, _ =
      Sup.solve ~config ~ctx:(ctx ~budget:30. ~seed ()) ~shards:3 inst
    in
    match o with
    | Solver.Infeasible m -> Alcotest.failf "seed %d: aborted: %s" seed m
    | _ ->
        check_valid (Printf.sprintf "seed %d under chaos" seed) inst
          (value_exn o)
  done

(* {1 checkpoint / resume} *)

let test_resume_uses_cached_shards () =
  with_dir @@ fun dir ->
  let rng = Rng.create 31 in
  let inst = random_instance rng ~n_p:18 ~n_r:45 ~dp:2 in
  let config = { Sup.default_config with Sup.store_dir = Some dir } in
  let o1, _ = Sup.solve ~config ~ctx:(ctx ~seed:4 ()) ~shards:3 inst in
  let a1 = value_exn o1 in
  let o2, prov2 =
    Sup.solve
      ~config:{ config with Sup.resume = true }
      ~ctx:(ctx ~seed:4 ()) ~shards:3 inst
  in
  let a2 = value_exn o2 in
  Alcotest.(check bool)
    "resumed result bit-identical" true
    (Assignment.to_lines a1 = Assignment.to_lines a2);
  List.iter
    (fun p ->
      match p.Summary.shard_status with
      | Summary.Shard_cached -> ()
      | _ ->
          Alcotest.failf "shard %d re-solved on resume (%s)" p.Summary.shard
            (pp_prov p))
    prov2

(* A resume whose flags or objective differ from the stored manifest
   must refuse rather than reuse shard results computed for something
   else. The objective case changes a taxonomy tree only at edge 100 of
   119, past what a structural hash of the edge list reads. *)
let test_manifest_mismatch_refuses () =
  let refuses ~what ?(tweak = Fun.id) inst ~first ~second =
    with_dir @@ fun dir ->
    let config = { Sup.default_config with Sup.store_dir = Some dir } in
    ignore (Sup.solve ~config ~ctx:first ~shards:3 inst);
    let config = tweak { config with Sup.resume = true } in
    match fst (Sup.solve ~config ~ctx:second ~shards:3 inst) with
    | Solver.Infeasible m ->
        Alcotest.(check bool) (what ^ ": names the manifest") true
          (contains ~sub:"manifest" m)
    | o ->
        Alcotest.failf "%s mismatch must refuse to resume, got %s" what
          (Solver.status o)
  in
  let inst = random_instance (Rng.create 41) ~n_p:12 ~n_r:30 ~dp:2 in
  refuses ~what:"flag" inst
    ~tweak:(fun c -> { c with Sup.refine = false })
    ~first:(ctx ~seed:4 ()) ~second:(ctx ~seed:4 ());
  let tree moved =
    Objective.taxonomy
      (Taxonomy.create_exn
         (Array.init 120 (fun v ->
              if v = 0 then -1 else if v = 100 then moved else (v - 1) / 4)))
  in
  let with_tree moved = Solver.Ctx.make ~seed:4 ~objective:(tree moved) () in
  refuses ~what:"taxonomy"
    (random_instance ~dim:120 (Rng.create 42) ~n_p:12 ~n_r:30 ~dp:2)
    ~first:(with_tree 24) ~second:(with_tree 3)

let test_kill_resume_bit_identity () =
  with_dir @@ fun dir ->
  let rng = Rng.create 4242 in
  let inst = random_instance rng ~n_p:24 ~n_r:60 ~dp:2 in
  let mk_config () =
    {
      Sup.default_config with
      Sup.store_dir = Some dir;
      cadence = Some (Store.Every_rounds 1);
    }
  in
  (* the uninterrupted reference, no store involved *)
  let reference =
    let o, _ = Sup.solve ~ctx:(ctx ~seed:8 ()) ~shards:3 inst in
    Assignment.to_lines (value_exn o)
  in
  (* child: checkpoint into [dir] and SIGKILL itself mid-solve, right
     after the 6th journaled checkpoint event *)
  (match Unix.fork () with
  | 0 ->
      let seen = ref 0 in
      let config =
        {
          (mk_config ()) with
          Sup.on_shard_event =
            Some
              (fun ~shard:_ _ ->
                incr seen;
                if !seen > 6 then Unix.kill (Unix.getpid ()) Sys.sigkill);
        }
      in
      ignore (Sup.solve ~config ~ctx:(ctx ~seed:8 ()) ~shards:3 inst);
      Unix._exit 0
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | Unix.WEXITED 0 ->
          (* tiny instances can finish in under 6 events; the resume
             below then exercises the cached path instead *)
          ()
      | status ->
          Alcotest.failf "child ended unexpectedly (%s)"
            (match status with
            | Unix.WEXITED c -> Printf.sprintf "exit %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)));
  let config = { (mk_config ()) with Sup.resume = true } in
  let o, _ = Sup.solve ~config ~ctx:(ctx ~seed:8 ()) ~shards:3 inst in
  check_valid "post-kill resume" inst (value_exn o);
  Alcotest.(check bool)
    "killed + resumed = uninterrupted, bit for bit" true
    (Assignment.to_lines (value_exn o) = reference)

(* {1 partition and merge invariants} *)

let test_partition_covers_once () =
  let rng = Rng.create 51 in
  let inst = random_instance rng ~n_p:33 ~n_r:50 ~dp:2 in
  List.iter
    (fun shards ->
      let part = Partition.make ~shards inst in
      let seen = Array.make 33 0 in
      Array.iteri
        (fun s papers ->
          Array.iter
            (fun p ->
              seen.(p) <- seen.(p) + 1;
              Alcotest.(check int)
                (Printf.sprintf "of_paper agrees (%d shards)" shards)
                s
                part.Partition.of_paper.(p))
            papers)
        part.Partition.papers;
      Array.iteri
        (fun p n ->
          if n <> 1 then
            Alcotest.failf "paper %d in %d shards (of %d)" p n shards)
        seen;
      Array.iter
        (fun dr ->
          Alcotest.(check bool) "shard cap positive" true (dr >= 1))
        part.Partition.delta_r)
    [ 1; 2; 4; 7 ];
  let p1 = Partition.make ~shards:1 inst in
  Alcotest.(check int) "shards=1 keeps the global cap" inst.Instance.delta_r
    p1.Partition.delta_r.(0)

let test_merge_trims_overload () =
  (* both shards pile onto reviewer 0; the merge must trim it back to
     the global cap, repair the gaps, and still validate *)
  let rng = Rng.create 61 in
  let inst = random_instance rng ~n_p:8 ~n_r:10 ~dp:2 in
  let part = Partition.make ~shards:2 inst in
  let subs =
    Array.init part.Partition.shards (fun s ->
        let sub = Partition.sub_instance inst part s in
        let n = Instance.n_papers sub in
        let a = Assignment.empty ~n_papers:n in
        for p = 0 to n - 1 do
          (* reviewer 0 everywhere, plus a distinct second reviewer *)
          Assignment.add a ~paper:p ~reviewer:0;
          Assignment.add a ~paper:p ~reviewer:(1 + ((p + s) mod 7))
        done;
        a)
  in
  match Merge.merge inst part subs with
  | Error e -> Alcotest.failf "merge failed: %s" e
  | Ok (merged, trimmed) ->
      check_valid "merged after trim+repair" inst merged;
      Alcotest.(check bool) "the pile-up was trimmed" true (trimmed > 0)

let test_fingerprint_pins_partition () =
  let rng = Rng.create 71 in
  let inst = random_instance rng ~n_p:20 ~n_r:40 ~dp:2 in
  let f2 = Partition.fingerprint (Partition.make ~shards:2 inst) in
  let f2' = Partition.fingerprint (Partition.make ~shards:2 inst) in
  let f3 = Partition.fingerprint (Partition.make ~shards:3 inst) in
  Alcotest.(check string) "deterministic" f2 f2';
  Alcotest.(check bool) "shard count changes the fingerprint" true (f2 <> f3)

let () =
  Alcotest.run "shard"
    [
      ( "parity",
        [
          Alcotest.test_case "70 seeds: sharded ~ unsharded" `Slow
            test_parity_many_seeds;
          Alcotest.test_case "quick preset: shards=4 >= 0.97x shards=1" `Quick
            test_preset_shard_ratio;
          Alcotest.test_case "same seed, same bytes" `Quick
            test_sharded_deterministic;
          Alcotest.test_case "more shards than papers" `Quick
            test_more_shards_than_papers;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "every fault class degrades, never crashes"
            `Quick test_fault_classes;
          Alcotest.test_case "exhausted retries reach the backstop" `Quick
            test_exhausted_retries_fall_back;
          Alcotest.test_case "chaos plan never aborts (12 seeds)" `Slow
            test_chaos_plan_never_aborts;
        ] );
      ( "resume",
        [
          Alcotest.test_case "cached shards, bit-identical" `Quick
            test_resume_uses_cached_shards;
          Alcotest.test_case "manifest mismatch refuses" `Quick
            test_manifest_mismatch_refuses;
          Alcotest.test_case "SIGKILL mid-shard + resume" `Slow
            test_kill_resume_bit_identity;
        ] );
      ( "partition-merge",
        [
          Alcotest.test_case "papers covered exactly once" `Quick
            test_partition_covers_once;
          Alcotest.test_case "merge trims overloaded reviewers" `Quick
            test_merge_trims_overload;
          Alcotest.test_case "fingerprint pins the partition" `Quick
            test_fingerprint_pins_partition;
        ] );
    ]
