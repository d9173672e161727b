module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Synthetic = Dataset.Synthetic
module Event = Wgrap_serve.Event
module State = Wgrap_serve.State
module Durable = Wgrap_serve.Durable
module Server = Wgrap_serve.Server
module Trace = Harness.Trace
open Wgrap

type config = {
  seed : int;
  seconds : float;
  trace : Trace.t option;
  quick : bool;
  work_dir : string;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  samples : (string * int) list;
  notes : string list;
}

(* {1 Shared pieces} *)

let ms s = s *. 1000.
let sum = Array.fold_left ( +. ) 0.
let median_or_zero xs = if Array.length xs = 0 then 0. else Harness.median xs

let kb_to_mb key =
  match Harness.proc_status_kb key with
  | Some kb -> float_of_int kb /. 1024.
  | None -> -1.

(* Every input of a run derives from (seed, operation index). *)
let op_seed ~seed i = Hashtbl.hash (seed, i)

(* Run [op 0], [op 1], ... back to back: at least [min_ops], at most
   [max_ops], and no further once the next operation — guessed to take
   as long as the last one — would end past [seconds]. [op] returns the
   latency it measured itself, so input generation around the timed
   call is not charged to the system under test. *)
let closed_loop ~seconds ~min_ops ~max_ops op =
  let start = Timer.now () in
  let rec go i last acc =
    if i >= max_ops || (i >= min_ops && Timer.now () -. start +. last > seconds) then
      Array.of_list (List.rev acc)
    else
      let lat = op i in
      go (i + 1) lat (lat :: acc)
  in
  go 0 0. []

(* Every operation runs twice: a first pass for half the time, then the
   same operations again in the same order, about half a run later. An
   operation's latency is the faster of its two runs — on a shared host
   that discards bursts of interference from other tenants and keeps the
   cost of the code — and for the deterministic solves the repeat
   doubles as the determinism check. Returns the first-pass latencies
   and the per-operation minima. *)
let two_passes ~seconds ~min_ops ~max_ops op =
  let first = closed_loop ~seconds:(seconds /. 2.) ~min_ops ~max_ops (op ~pass:`First) in
  let again = Array.init (Array.length first) (op ~pass:`Repeat) in
  (first, Array.map2 Float.min first again)

(* The untraced measurement of a run. A traced run makes one pass in half
   the time and leaves the rest to its traced replay, which repeats the
   same operations and checks them against the first pass. *)
let measure cfg ~min_ops ~max_ops op =
  match cfg.trace with
  | None -> two_passes ~seconds:cfg.seconds ~min_ops ~max_ops op
  | Some _ ->
      let first = closed_loop ~seconds:(cfg.seconds /. 2.) ~min_ops ~max_ops (op ~pass:`First) in
      (first, first)

(* How many times {!measure} ran each operation. *)
let passes cfg = if Option.is_some cfg.trace then 1 else 2

(* What one workload run accumulates: gates, failures, named samples. *)
type run_state = {
  mutable notes : string list;
  mutable ok : bool;
  mutable failed : int;
  values : (string, float) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
}

let new_run () =
  { notes = []; ok = true; failed = 0; values = Hashtbl.create 64; counts = Hashtbl.create 64 }

let gate r name cond =
  if not cond then begin
    r.ok <- false;
    r.notes <- ("gate failed: " ^ name) :: r.notes
  end

let note r line = r.notes <- line :: r.notes
let set r ?n name v =
  Hashtbl.replace r.values name v;
  Option.iter (Hashtbl.replace r.counts name) n

(* A tail metric under the percentile rule: the reported quantile drops
   to the highest one with ten samples beyond it, and the log says so. *)
let set_tail r name ~want xs =
  if Array.length xs > 0 then begin
    let v, q = Harness.tail ~want xs in
    set r ~n:(Array.length xs) name (ms v);
    if q < want then note r (Printf.sprintf "%s: reported p%.0f (n=%d)" name (q *. 100.) (Array.length xs))
  end

let set_p50_ms r name xs =
  if Array.length xs > 0 then set r ~n:(Array.length xs) name (ms (Harness.median xs))

(* [ops]: latency of every operation the loop sent, for throughput;
   [op_lats]: the operations whose latency the client waits on (every
   op, except that serve reads do not count as acks). *)
let set_end_to_end r ~setups ~ops ~op_lats ~coverage:(mean, p10, n_cov) =
  set r ~n:(Array.length setups) "setup_s" (Harness.median setups);
  set r ~n:(Array.length ops) "ops_per_s" (float_of_int (Array.length ops) /. sum ops);
  set r ~n:(Array.length op_lats) "op_p50_ms" (ms (Harness.median op_lats));
  (* p90, not p95 or p99: about 5% of jra-shortlist queries form a
     slow mode, and a p95 on its edge swung 17% across seeds where the
     p90 stayed within 5%. The slow mode still moves [ops_per_s]. *)
  set_tail r "op_tail_ms" ~want:0.9 op_lats;
  let peak = kb_to_mb "VmHWM" in
  gate r "peak RSS readable from /proc/self/status" (peak > 0.);
  set r "peak_rss_mb" peak;
  set r ~n:n_cov "coverage_mean" mean;
  set r ~n:n_cov "coverage_p10" p10

let pooled_coverage scores =
  let all = Array.concat scores in
  (Wgrap_util.Stats.mean all, Harness.percentile all 0.1, Array.length all)

let set_gc r =
  let st = Gc.quick_stat () in
  set r "gc.top_heap_mb"
    (float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  set r "gc.major_collections" (float_of_int st.Gc.major_collections)

let overhead r ~traced ~untraced =
  if untraced > 0. then set r "trace.overhead" ((traced /. untraced) -. 1.)

let finish r cfg ~attempted =
  let catalog =
    if Option.is_some cfg.trace then Harness.per_layer else Harness.end_to_end
  in
  let metrics =
    List.map
      (fun (m : Harness.metric) ->
        (m.name, Option.value (Hashtbl.find_opt r.values m.name) ~default:0.))
      catalog
  in
  List.iter
    (fun (name, v) ->
      gate r (name ^ " is finite") (Float.is_finite v);
      if Option.is_none cfg.trace then gate r (name ^ " is non-zero") (not (Float.equal v 0.)))
    metrics;
  {
    correct = r.ok;
    attempted;
    failed = r.failed;
    metrics;
    samples =
      List.filter_map
        (fun (name, _) -> Option.map (fun n -> (name, n)) (Hashtbl.find_opt r.counts name))
        metrics;
    notes = List.rev r.notes;
  }

(* {1 cra-dense and cra-pruned-k16} *)

type cra_shape = { preset : Synthetic.instance_preset; k : int; min_ops : int }

(* Small instances rather than the 3k x 300 quick and 50k x 5k xl
   presets: a quick solve takes ~8 s, an xl one ~58 s, and the SRA round
   count alone swings one instance's time by 15-20% from seed to seed,
   so a run of a few solves cannot be steady. A 600 x 60 track solves in
   ~0.17 s and a 4000 x 400 instance in ~0.7 s; averaging the ~50 or ~14
   distinct ones of a pass is. *)
let cra_shape ~quick ~pruned =
  match (quick, pruned) with
  | false, false ->
      {
        preset =
          { Synthetic.quick_preset with preset_name = "track"; n_reviewers = 600; n_papers = 60 };
        k = 0;
        (* 40: enough for a p75 (ten solves beyond it) on every run, so
           op_tail_ms never drops to the median on a slow one. *)
        min_ops = 40;
      }
  | false, true ->
      {
        preset =
          { Synthetic.xl_preset with preset_name = "large"; n_reviewers = 4_000; n_papers = 400 };
        k = 16;
        min_ops = 6;
      }
  | true, false ->
      {
        preset =
          {
            Synthetic.quick_preset with
            preset_name = "tiny-track";
            n_reviewers = 90;
            n_papers = 9;
            n_topics = 30;
          };
        k = 0;
        min_ops = 2;
      }
  | true, true ->
      {
        preset =
          {
            Synthetic.xl_preset with
            preset_name = "tiny-large";
            n_reviewers = 400;
            n_papers = 40;
            n_topics = 60;
          };
        k = 8;
        min_ops = 2;
      }

let cra_instance ~quick ~pruned ~seed i =
  Synthetic.instance_of_preset ~seed:(op_seed ~seed i) (cra_shape ~quick ~pruned).preset

(* [Instance.create_exn] alone, over an instance's generated vectors:
   the set-up share the generator does not own. *)
let recreate (inst : Instance.t) =
  Instance.create_exn ~scoring:inst.scoring ~papers:inst.papers ~reviewers:inst.reviewers
    ~delta_p:inst.delta_p ~delta_r:inst.delta_r ()

let per_paper inst a =
  Array.init (Instance.n_papers inst) (fun p -> Assignment.paper_score inst a p)

(* The chain {!Solver.cra} runs for a submodular objective at jobs=1
   (Solver.sdga_sra), one public call per layer, each in a span. The
   caches are filled in the order retrieval -> Eq. 9 sums -> the rest of
   [prime], so each span holds one layer's work. *)
let traced_chain tr ~k ~rng_seed inst =
  let span name f = Trace.span tr name f in
  let gm =
    span "gain_matrix.create" (fun () ->
        Gain_matrix.create ~candidates:k
          (Objective.view (Objective.bind Objective.coverage inst)))
  in
  let n_cand =
    if Gain_matrix.pruned gm then
      span "gain_matrix.candidates" (fun () ->
          let n = ref 0 in
          for p = 0 to Instance.n_papers inst - 1 do
            n := !n + Array.length (Gain_matrix.candidates gm ~paper:p)
          done;
          !n)
    else 0
  in
  span "gain_matrix.denominators" (fun () -> ignore (Gain_matrix.column_denominators gm));
  span "gain_matrix.prime" (fun () -> Gain_matrix.prime gm);
  let rss_primed = kb_to_mb "VmRSS" in
  let last = ref 0. in
  let stages =
    {
      Checkpoint.on_event =
        (function
        | Checkpoint.Stage_done { stage; _ } ->
            let now = Timer.now () in
            Trace.mark tr (Printf.sprintf "sdga.stage%d" stage) ~start:!last ~stop:now;
            last := now
        | _ -> ());
      offer = ignore;
    }
  in
  let a =
    span "sdga.solve" (fun () ->
        last := Timer.now ();
        Sdga.solve
          ~ctx:{ Ctx.default with gains = Some gm; candidates = k; checkpoint = Some stages }
          inst)
  in
  let rss_sdga = kb_to_mb "VmRSS" in
  let rounds = ref 0 and improving = ref 0 in
  let best = ref (Assignment.coverage inst a) in
  let on_round ~round:_ ~elapsed:_ ~best:b =
    let now = Timer.now () in
    Trace.mark tr "sra.round" ~start:!last ~stop:now;
    last := now;
    incr rounds;
    if not (Float.equal b !best) then incr improving;
    best := b
  in
  let a =
    span "sra.refine" (fun () ->
        last := Timer.now ();
        Sra.refine ~on_round
          ~ctx:
            {
              Ctx.default with
              rng = Some (Rng.create rng_seed);
              gains = Some gm;
              candidates = k;
            }
          inst a)
  in
  let f = float_of_int in
  ( a,
    [
      ("rss.primed_mb", rss_primed);
      ("rss.sdga_mb", rss_sdga);
      ("rss.sra_mb", kb_to_mb "VmRSS");
      ("gain_matrix.candidates.count", f n_cand);
      ("gain_matrix.bytes", f (Gain_matrix.matrix_bytes gm));
      ("sra.rounds", f !rounds);
      ("sra.improving_rounds", f !improving);
      ("sra.useful_ratio", if !rounds = 0 then 0. else f !improving /. f !rounds);
    ] )

let run_cra ~pruned cfg =
  let shape = cra_shape ~quick:cfg.quick ~pruned in
  let r = new_run () in
  let instance i = cra_instance ~quick:cfg.quick ~pruned ~seed:cfg.seed i in
  let solve i inst =
    let ctx = Ctx.make ~seed:(op_seed ~seed:cfg.seed i) ~candidates:shape.k () in
    Timer.time (fun () -> Solver.cra ~ctx inst)
  in
  let setups = ref [] and scores = ref [] and first = Hashtbl.create 64 in
  let op ~pass i =
    let inst, gen_s = Timer.time (fun () -> instance i) in
    setups := gen_s :: !setups;
    let out, s = solve i inst in
    (match out with
    | Solver.Complete a -> (
        gate r "Assignment.validate" (Result.is_ok (Assignment.validate inst a));
        let cov = Assignment.coverage inst a in
        match pass with
        | `First ->
            if i < shape.min_ops then scores := per_paper inst a :: !scores;
            Hashtbl.replace first i (a, cov)
        | `Repeat -> (
            match Hashtbl.find_opt first i with
            | Some (a1, cov1) ->
                gate r
                  (Printf.sprintf "op %d: repeat solve gives the same groups and coverage" i)
                  (Assignment.equal a a1 && Float.equal cov cov1)
            | None -> ()))
    | o ->
        r.failed <- r.failed + 1;
        note r (Printf.sprintf "op %d: Solver.cra %s" i (Solver.status o)));
    s
  in
  let min_ops = if Option.is_some cfg.trace then 1 else shape.min_ops in
  let once, lats = measure cfg ~min_ops ~max_ops:100_000 op in
  (match cfg.trace with
  | None ->
      set_end_to_end r
        ~setups:(Array.of_list !setups)
        ~ops:lats ~op_lats:lats
        ~coverage:(pooled_coverage (List.rev !scores))
  | Some tr ->
      (* One list of (name, value) readings per replayed operation. *)
      let readings = ref [] in
      for i = 0 to Array.length once - 1 do
        Trace.set_trace tr i;
        Trace.span tr "op" (fun () ->
            let inst = Trace.span tr "setup.instance" (fun () -> instance i) in
            let rss_setup = kb_to_mb "VmRSS" in
            ignore (Trace.span tr "instance.create" (fun () -> recreate inst));
            let a, stats =
              Trace.span tr "cra.chain" (fun () ->
                  traced_chain tr ~k:shape.k ~rng_seed:(op_seed ~seed:cfg.seed i) inst)
            in
            readings := (("rss.setup_mb", rss_setup) :: stats) :: !readings;
            gate r
              (Printf.sprintf "op %d: traced decomposition equals Solver.cra" i)
              (match Hashtbl.find_opt first i with
              | Some (a_untraced, _) -> Assignment.equal a a_untraced
              | None -> false);
            gate r "Assignment.validate (traced)"
              (Result.is_ok
                 (Trace.span tr "assignment.validate" (fun () -> Assignment.validate inst a)));
            ignore (Trace.span tr "summary.compute" (fun () -> Summary.compute inst a)))
      done;
      (match !readings with
      | first_op :: _ ->
          List.iter
            (fun (name, _) ->
              set r name
                (Harness.median (Array.of_list (List.map (List.assoc name) !readings))))
            first_op
      | [] -> ());
      let spans = Trace.spans tr in
      let med name = median_or_zero (Trace.per_trace spans name) in
      List.iter
        (fun (metric, span) -> set r metric (med span))
        [
          ("instance.create_s", "instance.create");
          ("gain_matrix.candidates_s", "gain_matrix.candidates");
          ("gain_matrix.denominators_s", "gain_matrix.denominators");
          ("gain_matrix.prime_s", "gain_matrix.prime");
          ("sdga.solve_s", "sdga.solve");
          ("sdga.stage1_s", "sdga.stage1");
          ("sdga.stage2_s", "sdga.stage2");
          ("sdga.stage3_s", "sdga.stage3");
          ("sra.refine_s", "sra.refine");
          ("assignment.validate_s", "assignment.validate");
          ("summary.compute_s", "summary.compute");
        ];
      let rounds = Trace.durations spans "sra.round" in
      set_p50_ms r "sra.round_p50_ms" rounds;
      set_tail r "sra.round_p90_ms" ~want:0.9 rounds;
      overhead r ~traced:(sum (Trace.per_trace spans "cra.chain")) ~untraced:(sum once);
      set_gc r);
  finish r cfg ~attempted:(passes cfg * Array.length lats)

(* {1 jra-shortlist} *)

type jra_shape = { jpreset : Synthetic.instance_preset; jk : int; jmin_ops : int; probes : int }

(* 2000 papers: room for a first pass several times faster than today's
   before it runs out of papers to ask for. *)
let jra_shape ~quick =
  if quick then
    {
      jpreset =
        {
          Synthetic.quick_preset with
          preset_name = "tiny-shortlist";
          n_reviewers = 150;
          n_papers = 40;
          n_topics = 30;
        };
      jk = 12;
      jmin_ops = 8;
      probes = 8;
    }
  else
    {
      jpreset = { Synthetic.quick_preset with preset_name = "shortlist"; n_papers = 2_000 };
      jk = 32;
      jmin_ops = 200;
      probes = 100;
    }

let jra_order ~seed n =
  let rng = Rng.create seed in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

let run_jra cfg =
  let shape = jra_shape ~quick:cfg.quick in
  let r = new_run () in
  let setups = Array.make 5 0. in
  let inst = ref None in
  for k = 0 to 4 do
    let i, s = Timer.time (fun () -> Synthetic.instance_of_preset ~seed:cfg.seed shape.jpreset) in
    setups.(k) <- s;
    inst := Some i
  done;
  let inst = Option.get !inst in
  set r "rss.setup_mb" (kb_to_mb "VmRSS");
  let order = jra_order ~seed:cfg.seed (Instance.n_papers inst) in
  let query i =
    let paper = order.(i) in
    Timer.time (fun () -> Solver.jra (Jra.of_instance ~candidates:shape.jk inst ~paper))
  in
  let same (a : Jra.solution) (b : Jra.solution) =
    Float.equal a.score b.score && List.equal Int.equal a.group b.group
  in
  let scores = ref [] and first = Hashtbl.create 512 in
  let op ~pass i =
    let out, s = query i in
    (match (out, pass) with
    | Solver.Complete sol, `First ->
        if i < shape.jmin_ops then scores := sol.Jra.score :: !scores;
        Hashtbl.replace first i sol
    | Solver.Complete sol, `Repeat ->
        gate r
          (Printf.sprintf "query %d: repeat gives the same group and score bit for bit" i)
          (match Hashtbl.find_opt first i with Some s1 -> same sol s1 | None -> true)
    | o, _ ->
        r.failed <- r.failed + 1;
        note r (Printf.sprintf "query %d: Solver.jra %s" i (Solver.status o)));
    s
  in
  (* Traced runs keep the minimum too: [solver.jra_p95_ms] needs 200
     replayed queries. *)
  let once, lats = measure cfg ~min_ops:shape.jmin_ops ~max_ops:(Instance.n_papers inst) op in
  let n = Array.length once in
  (* [f i sol] for every first-pass query that completed, in order. *)
  let iter_first f =
    for i = 0 to n - 1 do
      Option.iter (f i) (Hashtbl.find_opt first i)
    done
  in
  (match cfg.trace with
  | None ->
      (* Exactness on a sample, outside the timed loop: branch-and-bound
         alone must reach the chain's score. The traced run checks 100. *)
      iter_first (fun i sol ->
          if i < 5 then
            let bba, _ = Jra_bba.solve_counting (Jra.of_instance ~candidates:shape.jk inst ~paper:order.(i)) in
            gate r
              (Printf.sprintf "query %d: BBA matches the chain's exact score" i)
              (Float.abs (sol.Jra.score -. bba.Jra.score) <= 1e-9));
      let scores = Array.of_list !scores in
      set_end_to_end r ~setups ~ops:lats ~op_lats:lats
        ~coverage:(pooled_coverage [ scores ])
  | Some tr ->
      let create = Array.init 3 (fun _ -> snd (Timer.time (fun () -> recreate inst))) in
      set r "instance.create_s" (Harness.median create);
      iter_first (fun i sol ->
          Trace.set_trace tr i;
          Trace.span tr "op" (fun () ->
              let pb =
                Trace.span tr "jra.of_instance" (fun () ->
                    Jra.of_instance ~candidates:shape.jk inst ~paper:order.(i))
              in
              match Trace.span tr "solver.jra" (fun () -> Solver.jra pb) with
              | Solver.Complete s ->
                  gate r (Printf.sprintf "query %d: traced replay agrees" i) (same s sol)
              | _ -> gate r (Printf.sprintf "query %d: traced replay completes" i) false));
      (* The probe: each link of the JRA chain alone on the same
         problems — the ILP the chain leads with, branch-and-bound, and
         the greedy backstop. *)
      let nodes = ref [] and pruned = ref [] and gaps = ref [] in
      iter_first (fun i sol ->
          if i < shape.probes then begin
            Trace.set_trace tr i;
            Trace.span tr "probe" (fun () ->
                let pb = Jra.of_instance ~candidates:shape.jk inst ~paper:order.(i) in
                let ilp = Trace.span tr "jra_ilp.solve" (fun () -> Jra_ilp.solve pb) in
                let bba, stats =
                  Trace.span tr "jra_bba.solve" (fun () -> Jra_bba.solve_counting pb)
                in
                let greedy = Trace.span tr "jra.greedy" (fun () -> Jra.greedy pb) in
                (match ilp with
                | Jra_ilp.Solved s ->
                    gate r
                      (Printf.sprintf "query %d: ILP and BBA agree to 1e-9" i)
                      (Float.abs (s.Jra.score -. bba.Jra.score) <= 1e-9)
                | Jra_ilp.Timed_out _ -> gate r "unbudgeted ILP finishes" false);
                gate r
                  (Printf.sprintf "query %d: BBA matches the chain's exact score" i)
                  (Float.abs (sol.Jra.score -. bba.Jra.score) <= 1e-9);
                nodes := float_of_int stats.Jra_bba.nodes :: !nodes;
                pruned := float_of_int stats.Jra_bba.pruned :: !pruned;
                if bba.Jra.score > 0. then
                  gaps := ((bba.Jra.score -. greedy.Jra.score) /. bba.Jra.score) :: !gaps)
          end);
      let spans = Trace.spans tr in
      let d name = Trace.durations spans name in
      set_p50_ms r "jra.problem_build_p50_ms" (d "jra.of_instance");
      set_p50_ms r "solver.jra_p50_ms" (d "solver.jra");
      set_tail r "solver.jra_p95_ms" ~want:0.95 (d "solver.jra");
      set_p50_ms r "jra_ilp.query_p50_ms" (d "jra_ilp.solve");
      set_tail r "jra_ilp.query_p90_ms" ~want:0.9 (d "jra_ilp.solve");
      set_p50_ms r "jra_bba.query_p50_ms" (d "jra_bba.solve");
      set_tail r "jra_bba.query_p90_ms" ~want:0.9 (d "jra_bba.solve");
      set r "jra_bba.nodes" (median_or_zero (Array.of_list !nodes));
      set r "jra_bba.pruned" (median_or_zero (Array.of_list !pruned));
      set r "jra_greedy.gap" (Wgrap_util.Stats.mean (Array.of_list !gaps));
      overhead r ~traced:(sum (Trace.per_trace spans "op")) ~untraced:(sum once);
      set_gc r);
  finish r cfg ~attempted:(passes cfg * n)

(* {1 serve-wal} *)

type serve_shape = {
  dim : int;
  n_reviewers : int;
  n_events : int;
  delta_p : int;
  delta_r : int;
  smin_ops : int;
}

let serve_shape ~quick =
  if quick then
    { dim = 8; n_reviewers = 12; n_events = 60; delta_p = 3; delta_r = 60; smin_ops = 20 }
  else
    { dim = 16; n_reviewers = 60; n_events = 3_000; delta_p = 3; delta_r = 120; smin_ops = 400 }

(* The event mix of a live submission window: ~60% paper-add, ~10% each
   of coi-add, bid-update, paper-withdraw and query. *)
let serve_stream ~quick ~seed =
  let sh = serve_shape ~quick in
  let rng = Rng.create seed in
  let vec () =
    Event.encode_vec (Array.init sh.dim (fun _ -> 0.05 +. Rng.uniform rng))
  in
  let next_id = ref 0 and next_p = ref 0 and papers = ref [] in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  (* The server refuses a bid on a conflicted pair and a conflict
     registered twice, so a drawn reviewer already in conflict with the
     paper gives way to the next free one. Paper ids are never reused. *)
  let coi = Hashtbl.create 64 in
  let free_reviewer p r =
    List.find_opt
      (fun rv -> not (Hashtbl.mem coi (p, rv)))
      (List.init sh.n_reviewers (fun k -> (r + k) mod sh.n_reviewers))
  in
  let lines = ref [] in
  let emit body =
    incr next_id;
    lines := Printf.sprintf "%d %s" !next_id body :: !lines
  in
  for r = 0 to sh.n_reviewers - 1 do
    emit (Printf.sprintf "reviewer-join %d %s" r (vec ()))
  done;
  let joins = List.rev !lines in
  lines := [];
  for _ = 1 to sh.n_events do
    match Rng.int rng 10 with
    | 0 when !papers <> [] -> (
        let p = pick !papers in
        match free_reviewer p (Rng.int rng sh.n_reviewers) with
        | Some rv ->
            Hashtbl.replace coi (p, rv) ();
            emit (Printf.sprintf "coi-add %d %d" p rv)
        | None -> emit (Printf.sprintf "query %d" p))
    | 1 when !papers <> [] -> (
        let p = pick !papers in
        let rv = Rng.int rng sh.n_reviewers in
        let weight = Rng.uniform rng *. 2. in
        match free_reviewer p rv with
        | Some rv -> emit (Printf.sprintf "bid-update %d %d %.3f" p rv weight)
        | None -> emit (Printf.sprintf "query %d" p))
    | 2 when List.length !papers > 4 ->
        let p = pick !papers in
        emit (Printf.sprintf "paper-withdraw %d" p);
        papers := List.filter (fun x -> x <> p) !papers
    | 3 when !papers <> [] -> emit (Printf.sprintf "query %d" (pick !papers))
    | _ ->
        emit (Printf.sprintf "paper-add %d %s" !next_p (vec ()));
        papers := !next_p :: !papers;
        incr next_p
  done;
  (joins, List.rev !lines)

let is_ok resp = String.length resp >= 3 && String.equal (String.sub resp 0 3) "ok "

let is_mutation line =
  match String.split_on_char ' ' line with
  | _ :: ("query" | "health" | "stats") :: _ -> false
  | _ -> true

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Mirror of Server.handle_mutation / answer_read over the layers'
   public calls, one span per call; every span of one event carries the
   event id as its trace id. *)
let traced_replay tr r ~(scfg : Server.config) ~dir lines =
  let d = ok_or_fail "Durable.open_" (Durable.open_ ~dir) in
  let st =
    ok_or_fail "State.create"
      (State.create ~dim:scfg.dim ~delta_p:scfg.delta_p ~delta_r:scfg.delta_r ())
  in
  let since_snapshot = ref 0 and snapshots = ref 0 and degraded = ref 0 in
  let refuse why = gate r ("traced replay: " ^ why) false in
  let span name f = Trace.span tr name f in
  List.iter
    (fun line ->
      Trace.set_trace tr (Option.value (int_of_string_opt (Event.request_id line)) ~default:(-1));
      span "event" (fun () ->
          match span "event.parse" (fun () -> Event.parse ~dim:scfg.dim line) with
          | Error e -> refuse e
          | Ok { Event.request = Event.Read (Event.Query p); _ } ->
              ignore (span "state.query" (fun () -> State.query st p))
          | Ok { Event.request = Event.Read _; _ } -> ()
          | Ok { Event.id; request = Event.Mutate req } -> (
              if id <= State.last_client st then refuse "event id not increasing"
              else
                match span "state.validate_req" (fun () -> State.validate_req st req) with
                | Error e -> refuse e
                | Ok () -> (
                    let deadline = Option.map Timer.deadline scfg.event_budget in
                    let planned =
                      Trace.span tr "state.plan"
                        ~attrs:[ ("verb", Event.verb req) ]
                        (fun () -> State.plan ?deadline st req)
                    in
                    (match planned.State.reasons with [] -> () | _ -> incr degraded);
                    let entry =
                      Event.Client
                        { seq = State.applied st + 1; id; req; ops = planned.State.ops }
                    in
                    let payload = span "event.encode_entry" (fun () -> Event.encode_entry entry) in
                    match span "durable.append" (fun () -> Durable.append d payload) with
                    | Error e -> refuse e
                    | Ok () -> (
                        match span "state.commit" (fun () -> State.commit st entry) with
                        | Error e -> refuse e
                        | Ok () ->
                            incr since_snapshot;
                            if !since_snapshot >= scfg.snapshot_every then begin
                              let image = span "state.encode" (fun () -> State.encode st) in
                              match span "durable.snapshot" (fun () -> Durable.snapshot d image) with
                              | Ok () ->
                                  since_snapshot := 0;
                                  incr snapshots
                              | Error e -> refuse e
                            end)))))
    lines;
  Durable.close d;
  (!degraded, !snapshots)

let run_serve cfg =
  let sh = serve_shape ~quick:cfg.quick in
  let r = new_run () in
  let traced = Option.is_some cfg.trace in
  let scfg = Server.default ~dim:sh.dim ~delta_p:sh.delta_p ~delta_r:sh.delta_r in
  let joins, events = serve_stream ~quick:cfg.quick ~seed:cfg.seed in
  let events = Array.of_list events in
  let wal_dir k = Filename.concat cfg.work_dir (Printf.sprintf "wal-%d-%d-%s" (Unix.getpid ()) cfg.seed k) in
  (* Set-up: a fresh WAL directory, the server around it, and the
     reviewer joins — five times. The last two serve the two passes:
     the stream replays on a second fresh server and each event counts
     its faster ack, as the other workloads count their faster run. *)
  let setup k =
    let dir = wal_dir (string_of_int k) in
    remove_dir dir;
    let (d, t), s =
      Timer.time (fun () ->
          let d = ok_or_fail "Durable.open_" (Durable.open_ ~dir) in
          let t = ok_or_fail "Server.create" (Server.create ~durable:d scfg) in
          List.iter
            (fun line ->
              let resp = Server.handle_line t line in
              if not (is_ok resp) then failwith ("set-up refused: " ^ resp))
            joins;
          (d, t))
    in
    (dir, d, t, s)
  in
  let setups = Array.make 5 0. in
  let servers =
    Array.init 5 (fun k ->
        let dir, d, t, s = setup k in
        setups.(k) <- s;
        (dir, d, t))
  in
  for k = 0 to 2 do
    let dir, d, _ = servers.(k) in
    Durable.close d;
    remove_dir dir
  done;
  let server = function `First -> servers.(3) | `Repeat -> servers.(4) in
  set r "rss.setup_mb" (kb_to_mb "VmRSS");
  let summary = ref None in
  let min_ops = if traced then 1 else sh.smin_ops in
  let op ~pass i =
    let _, _, t = server pass in
    let line = events.(i) in
    let resp, s = Timer.time (fun () -> Server.handle_line t line) in
    if not (is_ok resp) then begin
      r.failed <- r.failed + 1;
      note r (Printf.sprintf "event %d: %s" i resp)
    end;
    if pass = `First && i = sh.smin_ops - 1 then summary := State.summary (Server.state t);
    s
  in
  let once, lats = measure cfg ~min_ops ~max_ops:(Array.length events) op in
  let n = Array.length once in
  let acks =
    Array.of_list (List.filteri (fun i _ -> is_mutation events.(i)) (Array.to_list lats))
  in
  let dir, _, _ = server `First in
  Array.iter (fun (_, d, _) -> Durable.close d) (Array.sub servers 3 2);
  (* Restart: recover the state from the WAL directory, and check each
     pass's journal against an independent fold of it. *)
  let recover =
    Array.init 3 (fun _ ->
        let res, s = Timer.time (fun () -> Server.load_state scfg ~dir) in
        gate r "Server.load_state recovers" (Result.is_ok res);
        s)
  in
  List.iter
    (fun pass ->
      let dir, _, _ = server pass in
      if pass = `First || not traced then begin
        match Server.verify scfg ~dir with
        | Ok _ -> ()
        | Error e -> gate r ("Server.verify: " ^ e) false
      end;
      remove_dir dir)
    [ `First; `Repeat ];
  note r (Printf.sprintf "recover_s %.6f (median of 3 Server.load_state)" (Harness.median recover));
  (match cfg.trace with
  | None ->
      let coverage =
        match !summary with
        | Some s ->
            (s.Summary.coverage_mean, s.Summary.coverage_p10, s.Summary.n_papers)
        | None ->
            gate r "State.summary after the quality prefix" false;
            (0., 0., 0)
      in
      set_end_to_end r ~setups ~ops:lats ~op_lats:acks ~coverage
  | Some tr ->
      let replay_dir = wal_dir "trace" in
      remove_dir replay_dir;
      let degraded, snapshots =
        traced_replay tr r ~scfg ~dir:replay_dir (joins @ Array.to_list (Array.sub events 0 n))
      in
      (match Server.verify scfg ~dir:replay_dir with
      | Ok _ -> ()
      | Error e -> gate r ("Server.verify (traced replay): " ^ e) false);
      remove_dir replay_dir;
      let spans = Trace.spans tr in
      let n_joins = List.length joins in
      let plan verb = Trace.durations ~attr:("verb", verb) spans "state.plan" in
      let verbs = [ "paper-add"; "paper-withdraw"; "coi-add"; "bid-update" ] in
      List.iter (fun v -> set_p50_ms r ("state.plan_p50_ms." ^ v) (plan v)) verbs;
      set_tail r "state.plan_p95_ms" ~want:0.95 (Array.concat (List.map plan verbs));
      set r "state.plan.degraded" (float_of_int degraded);
      let d name = Trace.durations spans name in
      set_p50_ms r "durable.append_p50_ms" (d "durable.append");
      set_tail r "durable.append_p95_ms" ~want:0.95 (d "durable.append");
      set_p50_ms r "state.commit_p50_ms" (d "state.commit");
      set_p50_ms r "durable.snapshot_p50_ms" (d "durable.snapshot");
      set r "durable.snapshots" (float_of_int snapshots);
      set r ~n:3 "server.load_state_s" (Harness.median recover);
      let traced_events =
        List.fold_left
          (fun acc (s : Trace.span) ->
            if String.equal s.name "event" && s.trace_id > n_joins then
              acc +. (float_of_int (s.end_ns - s.start_ns) /. 1e9)
            else acc)
          0. spans
      in
      overhead r ~traced:traced_events ~untraced:(sum once);
      set_gc r);
  finish r cfg ~attempted:(passes cfg * n)

let run name cfg =
  match name with
  | "cra-dense" -> run_cra ~pruned:false cfg
  | "cra-pruned-k16" -> run_cra ~pruned:true cfg
  | "jra-shortlist" -> run_jra cfg
  | "serve-wal" -> run_serve cfg
  | _ -> invalid_arg ("unknown workload " ^ name)
