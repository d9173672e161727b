module Rng = Wgrap_util.Rng
module Timer = Wgrap_util.Timer

type params = {
  omega : int;
  lambda : float;
  max_rounds : int;
}

let default_params = { omega = 10; lambda = 0.05; max_rounds = 10_000 }

(* Eq. 10 for one pair: the probability that pair (r, p) is correct
   (high means keep), from its single-reviewer score and the Eq. 9
   denominators. *)
let keep_probability ~denom ~score ~round ~lambda ~reviewer =
  let ratio =
    if denom.(reviewer) > 0. && score <> Lap.Hungarian.forbidden then
      score /. denom.(reviewer)
    else 0.
  in
  Float.max
    (1. /. float_of_int (Array.length denom))
    (exp (-.lambda *. float_of_int round) *. ratio)

let refine ?(params = default_params) ?on_round ?(ctx = Ctx.default) inst
    start =
  let deadline = ctx.Ctx.deadline and checkpoint = ctx.Ctx.checkpoint in
  let rng = Ctx.rng_or ~seed:0 ctx in
  let obj = Objective.bind ctx.Ctx.objective inst in
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  (* The shared gain matrix carries the Eq. 9 column sums (static across
     rounds), and its per-paper rows survive between rounds: a removal
     that never defined the group max on the paper's support keeps the
     row valid for the refill stage. *)
  let gm =
    match ctx.Ctx.gains with
    | Some g -> g
    | None -> Gain_matrix.create ~candidates:ctx.Ctx.candidates inst
  in
  (* Keep-probabilities are only ever read for current group members —
     delta_p pairs per paper per round — so each score is computed on
     demand with the sparse kernel (and the COI sentinel) the Eq. 9
     sums are built from. The removal model deliberately uses the pure
     coverage component ({!Objective.coverage_score}): removal targets
     topical misfit, modular terms (bids) steer the refill stage
     instead. *)
  let keep =
    let denom = Gain_matrix.column_denominators gm in
    fun ~round ~paper ~reviewer ->
      let score =
        if Instance.forbidden inst ~paper ~reviewer then
          Lap.Hungarian.forbidden
        else Objective.coverage_score obj ~paper ~reviewer
      in
      keep_probability ~denom ~score ~round ~lambda:params.lambda ~reviewer
  in
  (* Resume only from a state captured in this phase. The snapshot's
     score is trusted over a recomputation so the improvement threshold
     below compares against exactly the float the uninterrupted run
     held (the codec round-trips floats bit-exactly); certification of
     that score against a recomputed objective is the store's job. *)
  let resume =
    match ctx.Ctx.resume_from with
    | Some (Ok ({ Checkpoint.phase = Checkpoint.Sra_round k; _ } as st)) ->
        Some (k, st)
    | _ -> None
  in
  let best =
    ref
      (match resume with
      | Some (_, st) -> Assignment.copy st.Checkpoint.best
      | None -> Assignment.copy start)
  in
  let best_score =
    ref
      (match resume with
      | Some (_, st) -> st.Checkpoint.score
      | None -> Objective.value obj start)
  in
  (* Plateau tie-breaking (min only): [tie_break = None] keeps
     acceptance strictly value-improving, the coverage parity
     contract. The surrogate of the resumed best is recomputed — it is
     a pure function of the assignment, so no codec change. *)
  let tie_break = Objective.round_tie_break obj in
  let best_tb =
    ref (match tie_break with Some f -> f !best | None -> 0.)
  in
  let current =
    ref
      (match resume with
      | Some (_, st) -> Assignment.copy st.Checkpoint.current
      | None -> Assignment.copy start)
  in
  let stall = ref (match resume with Some (_, st) -> st.Checkpoint.stall | None -> 0)
  and round = ref (match resume with Some (k, _) -> k | None -> 0) in
  let start_time = Timer.now () in
  (* Per-round buffers, reset each round rather than reallocated: the
     trimmed workloads and refill capacities, and one paper's members
     with their removal weights. *)
  let workload = Array.make n_r 0 and capacity = Array.make n_r 0 in
  let members = ref [||] and weights = ref [||] in
  (try
     while
       !stall < params.omega
       && !round < params.max_rounds
       && match deadline with Some d -> not (Timer.expired d) | None -> true
     do
       incr round;
       (* Removal phase: drop exactly one reviewer from every group,
          favouring pairs with low keep-probability. *)
       let trimmed = Assignment.empty ~n_papers:n_p in
       Array.fill workload 0 n_r 0;
       for p = 0 to n_p - 1 do
         let group = Assignment.group !current p in
         let n = List.length group in
         if Array.length !members < n then begin
           members := Array.make n 0;
           weights := Array.make n 0.
         end;
         let members = !members and weights = !weights in
         List.iteri (fun i r -> members.(i) <- r) group;
         let total = ref 0. in
         for i = 0 to n - 1 do
           weights.(i) <-
             1. -. keep ~round:!round ~paper:p ~reviewer:members.(i);
           total := !total +. weights.(i)
         done;
         let victim =
           if !total <= 0. then Rng.int rng n
           else Rng.categorical_prefix rng weights n
         in
         for i = 0 to n - 1 do
           if i <> victim then begin
             let r = members.(i) in
             Assignment.add trimmed ~paper:p ~reviewer:r;
             workload.(r) <- workload.(r) + 1
           end
         done;
         Gain_matrix.set_group gm ~paper:p (Assignment.group trimmed p)
       done;
       (* Refill phase: one Stage-WGRAP completes every group. *)
       for r = 0 to n_r - 1 do
         capacity.(r) <- inst.Instance.delta_r - workload.(r)
       done;
       let pair_gain = Objective.stage_gain obj ~current:trimmed in
       let pairs =
         Stage.solve ?pair_gain ~gains:gm ?deadline inst
           ~current:trimmed ~capacity
       in
       List.iter
         (fun (p, r) ->
           Assignment.add trimmed ~paper:p ~reviewer:r;
           Gain_matrix.add gm ~paper:p ~reviewer:r)
         pairs;
       current := trimmed;
       let score = Objective.value obj trimmed in
       let improved = score > !best_score +. 1e-12 in
       let tb_candidate =
         match tie_break with Some f -> Some (f trimmed) | None -> None
       in
       let plateau =
         (not improved)
         && score >= !best_score -. 1e-12
         && (match tb_candidate with
            | Some c -> c > !best_tb +. 1e-12
            | None -> false)
       in
       if improved || plateau then begin
         if improved then best_score := score;
         (match tb_candidate with Some c -> best_tb := c | None -> ());
         best := Assignment.copy trimmed;
         stall := 0
       end
       else incr stall;
       (match checkpoint with
       | None -> ()
       | Some sink ->
           if improved then
             sink.Checkpoint.on_event
               (Checkpoint.Round_improved { round = !round; score });
           (* The RNG words are read inside the thunk, i.e. at the exact
              round boundary a resumed run re-enters — the sink forces
              the thunk synchronously or not at all. *)
           sink.Checkpoint.offer (fun () ->
               {
                 Checkpoint.link = "sra";
                 phase = Checkpoint.Sra_round !round;
                 stall = !stall;
                 score = !best_score;
                 rng = Some (Rng.words rng);
                 best = Assignment.copy !best;
                 current = Assignment.copy !current;
               }));
       match on_round with
       | Some f ->
           f ~round:!round
             ~elapsed:(Timer.now () -. start_time)
             ~best:!best_score
       | None -> ()
     done
   with
  | Failure _ ->
      (* An infeasible refill round (possible under adversarial COIs)
         simply ends refinement; the best-so-far stands. *)
      ()
  | Timer.Expired ->
      (* The deadline fired inside a refill stage; the trimmed round is
         abandoned and the best-so-far stands. *)
      ());
  !best
