module Timer = Wgrap_util.Timer

let approximation_ratio ~delta_p ~integral =
  let dp = float_of_int delta_p in
  let exponent = if integral then dp else dp -. 1. in
  1. -. ((1. -. (1. /. dp)) ** exponent)

let solve ?(ctx = Ctx.default) inst =
  let deadline = ctx.Ctx.deadline in
  let obj = Objective.bind ctx.Ctx.objective inst in
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  (* Resume only from a state captured in this phase; anything else
     (e.g. a mid-SRA state handed down by mistake) starts fresh. *)
  let resume =
    match ctx.Ctx.resume_from with
    | Some (Ok { Checkpoint.phase = Checkpoint.Sdga_stage k; current; _ }) ->
        Some (k, current)
    | _ -> None
  in
  let assignment =
    match resume with
    | Some (_, saved) -> Assignment.copy saved
    | None -> Assignment.empty ~n_papers:n_p
  in
  (* One gain matrix for all delta_p stages: a stage invalidates only
     the rows of papers whose group vector visibly changed when its
     pairs are committed; the rest carry over. A supplied matrix keeps
     its own backing; [ctx.candidates] only shapes the private one. *)
  let gm =
    match ctx.Ctx.gains with
    | Some g ->
        Gain_matrix.reset g;
        g
    | None -> Gain_matrix.create ~candidates:ctx.Ctx.candidates inst
  in
  if resume <> None then
    for p = 0 to n_p - 1 do
      Gain_matrix.set_group gm ~paper:p (Assignment.group assignment p)
    done;
  let used =
    match resume with
    | Some _ -> Assignment.workloads assignment ~n_reviewers:n_r
    | None -> Array.make n_r 0
  in
  let start_stage = match resume with Some (k, _) -> k | None -> 0 in
  let per_stage = Instance.stage_capacity inst in
  let truncated = ref false in
  (try
     (* With a pool, fill every stale row across domains up front; the
        sequential stage loop then reads warm rows instead of computing
        them one by one. Values are identical either way (same kernels,
        same versions), so this cannot change the result. *)
     (match ctx.Ctx.pool with
     | Some p when Wgrap_par.Pool.jobs p > 1 ->
         Gain_matrix.rebuild ~pool:p ?deadline gm
     | _ -> ());
     for stage_no = start_stage + 1 to inst.Instance.delta_p do
       Timer.check_opt deadline;
       let confined =
         Array.init n_r (fun r ->
             min per_stage (inst.Instance.delta_r - used.(r)))
       in
       (* Recomputed per stage: the min's rank boost depends on the papers'
          current scores; Coverage returns None (identity). *)
       let pair_gain = Objective.stage_gain obj ~current:assignment in
       let pairs =
         try
           Stage.solve ?pair_gain ~gains:gm ?deadline inst
             ~current:assignment ~capacity:confined
         with Failure _ ->
           (* When delta_p does not divide delta_r, the per-stage confinement
              can starve a late stage (cumulative workloads eat the slack the
              ceiling assumed). The paper's general-case analysis already
              discards the last stage's contribution, so relaxing the
              confinement — never the total workload — is sound. *)
           let relaxed =
             Array.init n_r (fun r -> inst.Instance.delta_r - used.(r))
           in
           Stage.solve ?pair_gain ~gains:gm ?deadline inst
             ~current:assignment ~capacity:relaxed
       in
       List.iter
         (fun (p, r) ->
           Assignment.add assignment ~paper:p ~reviewer:r;
           Gain_matrix.add gm ~paper:p ~reviewer:r;
           used.(r) <- used.(r) + 1)
         pairs;
       match ctx.Ctx.checkpoint with
       | None -> ()
       | Some sink ->
           let score = Objective.value obj assignment in
           sink.Checkpoint.on_event
             (Checkpoint.Stage_done { stage = stage_no; score });
           sink.Checkpoint.offer (fun () ->
               let snap = Assignment.copy assignment in
               {
                 Checkpoint.link = "sdga";
                 phase = Checkpoint.Sdga_stage stage_no;
                 stall = 0;
                 score;
                 rng = None;
                 best = snap;
                 current = snap;
               })
     done
   with Timer.Expired -> truncated := true);
  if !truncated then begin
    (* The deadline cut one or more stages: complete the incumbent
       greedily so the result stays feasible. Repair itself can only
       fail on adversarial COI structures; the partial incumbent is then
       returned and the caller's validation reports it. *)
    try Repair.complete inst assignment with Failure _ -> ()
  end;
  assignment
