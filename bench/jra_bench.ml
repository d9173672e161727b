(* JRA experiments: Figure 9 (scalability in delta_p and R), Figure 14
   (shifted defaults), Figure 15 (top-k), and the Section 5.1 CP-solver
   note. *)

module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer
module Report = Wgrap_util.Report
open Wgrap
open Wgrap_baselines

let combinations n k =
  let acc = ref 1. in
  for i = 0 to k - 1 do
    acc := !acc *. float_of_int (n - i) /. float_of_int (i + 1)
  done;
  !acc

(* One scalability point: average response time of BFS / ILP / BBA over
   [papers], at pool size [r] and group size [dp]. Methods that cannot
   finish within the profile's budget are reported as "-". *)
let point (ctx : Context.t) ~pool ~papers ~r ~dp =
  let rng = Context.rng_for ctx ((r * 131) + dp) in
  let sub =
    let idx = Rng.sample_without_replacement rng r (Array.length pool) in
    Array.map (fun i -> pool.(i)) idx
  in
  let problems =
    Array.map (fun paper -> Jra.make ~paper ~pool:sub ~group_size:dp ()) papers
  in
  let avg times = Wgrap_util.Stats.mean times in
  let time_all solve =
    avg (Array.map (fun p -> snd (Timer.time (fun () -> ignore (solve p)))) problems)
  in
  let bfs =
    if combinations r dp > ctx.Context.profile.Context.bfs_combination_budget
    then None
    else Some (time_all Jra_bfs.solve)
  in
  let ilp =
    if r > ctx.Context.profile.Context.ilp_max_reviewers then None
    else begin
      let deadline () = Timer.deadline ctx.Context.profile.Context.solver_budget in
      let times =
        Array.map
          (fun p ->
            let result, dt =
              Timer.time (fun () -> Jra_ilp.solve ~deadline:(deadline ()) p)
            in
            match result with Jra_ilp.Solved _ -> Some dt | Jra_ilp.Timed_out _ -> None)
          problems
      in
      if Array.for_all Option.is_some times then
        Some (avg (Array.map Option.get times))
      else None
    end
  in
  let bba = Some (time_all Jra_bba.solve) in
  (bfs, ilp, bba)

let cell = function Some t -> Report.seconds_cell t | None -> "-"

let scalability_table ctx ~title ~header ~points =
  Context.section ctx title;
  let rows =
    List.map
      (fun (label, (bfs, ilp, bba)) -> [ label; cell bfs; cell ilp; cell bba ])
      points
  in
  Report.table ~header:(header :: [ "BFS"; "ILP"; "BBA" ]) ~rows ctx.Context.fmt;
  Context.note ctx
    "(\"-\" = skipped: past the %s profile's budget or the dense-simplex size cap)@."
    ctx.Context.profile.Context.label

let n_test_papers (ctx : Context.t) =
  if ctx.Context.profile.Context.scale >= 1. then 20 else 5

(* Figure 9(c): the sparse shape exact JRA meets in production. A
   quick-preset committee (3000 reviewers, 120 topics, a few topics per
   vector) and each paper's top-32 shortlist: [Jra.of_instance] builds
   the compact problem (the shortlist projected onto the paper's
   support) that BFS, the ILP and BBA solve. The last column is BBA on
   the same shortlist kept as a mask over the dense committee, the
   construction the compact problem replaced. *)
let fig9_sparse ctx =
  let k = 32 in
  let dps = [ 2; 3; 4 ] in
  Context.section ctx
    (Printf.sprintf "Figure 9(c): JRA response time on the sparse shape (top-%d shortlist)" k);
  let budget = ctx.Context.profile.Context.solver_budget in
  let rows =
    List.map
      (fun dp ->
        let preset = { Dataset.Synthetic.quick_preset with delta_p = dp } in
        let inst = Dataset.Synthetic.instance_of_preset ~seed:ctx.Context.seed preset in
        let rng = Context.rng_for ctx (9_000 + dp) in
        let papers =
          Rng.sample_without_replacement rng (n_test_papers ctx) (Instance.n_papers inst)
        in
        let compact = Array.map (fun paper -> Jra.of_instance ~candidates:k inst ~paper) papers in
        let masked =
          Array.map
            (fun paper ->
              let cands = Instance.candidates inst ~k ~paper in
              Jra.make ~scoring:inst.Instance.scoring
                ~excluded:
                  (Array.init (Instance.n_reviewers inst) (fun r -> not (Array.mem r cands)))
                ~paper:inst.Instance.papers.(paper) ~pool:inst.Instance.reviewers
                ~group_size:dp ())
            papers
        in
        let timed solve problems =
          let deadline = Timer.deadline budget in
          let times, scores =
            Array.split
              (Array.map
                 (fun p ->
                   let score, dt = Timer.time (fun () -> solve ~deadline p) in
                   (dt, score))
                 problems)
          in
          if Timer.expired deadline then (None, scores)
          else (Some (Wgrap_util.Stats.mean times), scores)
        in
        let bfs = timed (fun ~deadline p -> (Jra_bfs.solve ~deadline p).Jra.score) compact in
        let ilp =
          timed
            (fun ~deadline p ->
              match Jra_ilp.solve ~deadline p with
              | Jra_ilp.Solved s -> s.Jra.score
              | Jra_ilp.Timed_out _ -> nan)
            compact
        in
        let bba = timed (fun ~deadline p -> (Jra_bba.solve ~deadline p).Jra.score) compact in
        let dense = timed (fun ~deadline p -> (Jra_bba.solve ~deadline p).Jra.score) masked in
        List.iter
          (fun (name, (t, scores)) ->
            if
              Option.is_some t
              && not (Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9) scores (snd bba))
            then Context.note ctx "  WARNING: %s and compact BBA disagree!@." name)
          [ ("BFS", bfs); ("ILP", ilp); ("masked dense BBA", dense) ];
        [ string_of_int dp; cell (fst bfs); cell (fst ilp); cell (fst bba); cell (fst dense) ])
      dps
  in
  Report.table
    ~header:[ "delta_p"; "BFS"; "ILP"; "BBA"; "BBA, masked dense pool" ]
    ~rows ctx.Context.fmt;
  Context.note ctx "(\"-\" = past the %s profile's %.0f s budget)@."
    ctx.Context.profile.Context.label budget

(* Figure 9(a): effect of delta_p at fixed R; 9(b): effect of R at
   delta_p = 3. Run at reduced R (documented in EXPERIMENTS.md): the
   orderings BBA << ILP << BFS and the growth shapes are the result. *)
let fig9 ctx =
  let pool = Context.jra_pool ctx in
  let papers = Context.jra_papers ctx ~count:(n_test_papers ctx) in
  let quick = ctx.Context.profile.Context.scale < 1. in
  let r_a = if quick then 40 else 100 in
  let dps = if quick then [ 2; 3; 4; 5 ] else [ 3; 4; 5; 6 ] in
  let points_a =
    List.map
      (fun dp -> (string_of_int dp, point ctx ~pool ~papers ~r:r_a ~dp))
      dps
  in
  scalability_table ctx
    ~title:
      (Printf.sprintf "Figure 9(a): JRA response time vs group size (R = %d)" r_a)
    ~header:"delta_p" ~points:points_a;
  let rs = if quick then [ 30; 40; 60; 100 ] else [ 100; 200; 300; 500 ] in
  let rs = List.filter (fun r -> r <= Array.length pool) rs in
  let points_b =
    List.map (fun r -> (string_of_int r, point ctx ~pool ~papers ~r ~dp:3)) rs
  in
  scalability_table ctx
    ~title:"Figure 9(b): JRA response time vs pool size (delta_p = 3)"
    ~header:"R" ~points:points_b;
  fig9_sparse ctx

(* Figure 14: the appendix rerun with shifted defaults. *)
let fig14 ctx =
  let pool = Context.jra_pool ctx in
  let papers = Context.jra_papers ctx ~count:(n_test_papers ctx) in
  let quick = ctx.Context.profile.Context.scale < 1. in
  let r_a = if quick then 50 else 150 in
  let dps = if quick then [ 2; 3; 4 ] else [ 3; 4; 5; 6 ] in
  let points_a =
    List.map
      (fun dp -> (string_of_int dp, point ctx ~pool ~papers ~r:r_a ~dp))
      dps
  in
  scalability_table ctx
    ~title:
      (Printf.sprintf "Figure 14(a): JRA response time vs group size (R = %d)" r_a)
    ~header:"delta_p" ~points:points_a;
  let rs = if quick then [ 30; 50; 80 ] else [ 100; 200; 300; 500 ] in
  let rs = List.filter (fun r -> r <= Array.length pool) rs in
  let points_b =
    List.map (fun r -> (string_of_int r, point ctx ~pool ~papers ~r ~dp:4)) rs
  in
  scalability_table ctx
    ~title:"Figure 14(b): JRA response time vs pool size (delta_p = 4)"
    ~header:"R" ~points:points_b

(* Figure 15: BBA's top-k cost on the default pool. *)
let fig15 ctx =
  Context.section ctx "Figure 15: effect of k on BBA (top-k reviewer groups)";
  let pool = Context.jra_pool ctx in
  let papers = Context.jra_papers ctx ~count:(n_test_papers ctx) in
  let ks = [ 1; 200; 400; 600; 800; 1000 ] in
  let rows =
    List.map
      (fun k ->
        let dt =
          Wgrap_util.Stats.mean
            (Array.map
               (fun paper ->
                 let problem = Jra.make ~paper ~pool ~group_size:3 () in
                 snd (Timer.time (fun () -> ignore (Jra_bba.top_k problem ~k))))
               papers)
        in
        [ string_of_int k; Report.seconds_cell dt ])
      ks
  in
  Report.table ~header:[ "k"; "BBA time" ] ~rows ctx.Context.fmt;
  Context.note ctx "(pool R = %d, delta_p = 3)@." (Array.length pool)

(* The Section 5.1 note: a generic CP solver vs BBA on R = 30,
   delta_p = 3 — including time to first feasible solution. *)
let cplex_note ctx =
  Context.section ctx "Section 5.1 note: generic CP solver vs BBA (R = 30, delta_p = 3)";
  let pool = Context.jra_pool ctx in
  let papers = Context.jra_papers ctx ~count:(n_test_papers ctx) in
  let rng = Context.rng_for ctx 3030 in
  let idx = Rng.sample_without_replacement rng 30 (Array.length pool) in
  let sub = Array.map (fun i -> pool.(i)) idx in
  let cp_total = ref 0. and cp_first = ref 0. and bba_total = ref 0. in
  let n = Array.length papers in
  Array.iter
    (fun paper ->
      let problem = Jra.make ~paper ~pool:sub ~group_size:3 () in
      let (cp_result, cp_first_dt), cp_dt =
        Timer.time (fun () ->
            Jra_cp.solve
              ~deadline:(Timer.deadline ctx.Context.profile.Context.solver_budget)
              problem)
      in
      let bba_result, bba_dt = Timer.time (fun () -> Jra_bba.solve problem) in
      (match (cp_result, bba_result) with
      | Jra_cp.Solved cp, bba ->
          if Float.abs (cp.Jra.score -. bba.Jra.score) > 1e-9 then
            Context.note ctx "  WARNING: CP and BBA disagree!@."
      | Jra_cp.Timed_out _, _ -> ());
      cp_total := !cp_total +. cp_dt;
      bba_total := !bba_total +. bba_dt;
      (match cp_first_dt with
      | Some t -> cp_first := !cp_first +. t
      | None -> ()))
    papers;
  let fn = float_of_int n in
  Report.table
    ~header:[ "metric"; "CP"; "BBA" ]
    ~rows:
      [
        [ "time to optimum"; Report.seconds_cell (!cp_total /. fn);
          Report.seconds_cell (!bba_total /. fn) ];
        [ "time to first feasible"; Report.seconds_cell (!cp_first /. fn); "n/a" ];
      ]
    ctx.Context.fmt;
  Context.note ctx
    "(paper: CPLEX needed 14.35s to the optimum and 90ms to a first feasible@ \
     group where BBA needed 4ms; the generic-CP disadvantage reproduces)@."
