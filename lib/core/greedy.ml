module Heap = Wgrap_util.Heap

type entry = { gain : float; reviewer : int; paper : int; version : int }

let solve_impl ?deadline ?gains ?(candidates = 0) ?pool
    ?(objective = Objective.coverage) inst =
  let obj = Objective.bind objective inst in
  (* Only a current-independent transform is sound here: a lazy heap
     assumes a popped stale gain can only over-estimate, which holds for
     coverage plus any modular term (Blend) but not for rank-dependent
     reweighing (min returns None and runs on raw coverage gains —
     greedy is its seed, SRA does the objective-aware work). *)
  let transform =
    match Objective.static_gain obj with
    | Some f -> f
    | None -> fun ~paper:_ ~reviewer:_ ~coverage_gain -> coverage_gain
  in
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  let dp = inst.Instance.delta_p and dr = inst.Instance.delta_r in
  let assignment = Assignment.empty ~n_papers:n_p in
  let workload = Array.make n_r 0 in
  let group_size = Array.make n_p 0 in
  (* Group vectors and versions live in the shared gain matrix: a heap
     entry is stale when the paper's group vector has visibly changed
     since it was pushed (commits that cannot move a row leave its
     version alone, so those entries stay fresh for free). *)
  let gm =
    match gains with
    | Some g ->
        Gain_matrix.reset g;
        g
    | None -> Gain_matrix.create ~candidates inst
  in
  (* [capacity] only sizes the heap's first allocation: one slot per
     row cell, an upper bound on the seeds below. *)
  let seed_hint = max 1 (n_p * Gain_matrix.candidate_count gm) in
  let heap =
    Heap.create ~capacity:seed_hint
      ~cmp:(fun a b -> Float.compare a.gain b.gain)
      ()
  in
  (* Heap seeding reads every row once; with a pool, compute them all
     across domains first so the sequential loop below reads warm rows.
     Same kernels and versions either way — values are bit-identical. *)
  (match pool with
  | Some p when Wgrap_par.Pool.jobs p > 1 ->
      (try Gain_matrix.rebuild ~pool:p ?deadline gm
       with Wgrap_util.Timer.Expired -> ())
  | _ -> ());
  (* Seed every row cell with a positive gain: COI pairs never enter,
     and zero-gain seeds are dropped too — gains only shrink as groups
     grow (submodularity), so a pair that starts at 0 stays at 0 and
     adds nothing the repair pass would not. Reviewers outside a pruned
     row reach the paper only through the repair pass, exactly like
     zero-gain pairs do. *)
  for p = 0 to n_p - 1 do
    let v = Gain_matrix.version gm ~paper:p in
    Gain_matrix.iter_row gm ~paper:p (fun ~reviewer:r ~gain ->
        let gain = transform ~paper:p ~reviewer:r ~coverage_gain:gain in
        if gain > 0. && not (Instance.forbidden inst ~paper:p ~reviewer:r)
        then Heap.push heap { gain; reviewer = r; paper = p; version = v })
  done;
  let remaining = ref (n_p * dp) in
  let stuck = ref false in
  while
    !remaining > 0 && (not !stuck)
    && not (Wgrap_util.Timer.expired_opt deadline)
  do
    match Heap.pop heap with
    | None ->
        (* Tight workloads can strand tail papers (their remaining pool
           is inside their own group); the repair pass completes them. *)
        stuck := true
    | Some e ->
        let feasible =
          group_size.(e.paper) < dp
          && workload.(e.reviewer) < dr
          (* Groups hold at most delta_p reviewers, so the list scan is
             O(delta_p) — no n_p * n_r membership matrix needed. *)
          && not (List.mem e.reviewer (Assignment.group assignment e.paper))
        in
        if feasible then begin
          if e.version = Gain_matrix.version gm ~paper:e.paper then begin
            (* Fresh gain: globally maximal, commit the pair. *)
            Assignment.add assignment ~paper:e.paper ~reviewer:e.reviewer;
            Gain_matrix.add gm ~paper:e.paper ~reviewer:e.reviewer;
            workload.(e.reviewer) <- workload.(e.reviewer) + 1;
            group_size.(e.paper) <- group_size.(e.paper) + 1;
            decr remaining
          end
          else
            Heap.push heap
              {
                e with
                gain =
                  transform ~paper:e.paper ~reviewer:e.reviewer
                    ~coverage_gain:
                      (Gain_matrix.gain gm ~paper:e.paper ~reviewer:e.reviewer);
                version = Gain_matrix.version gm ~paper:e.paper;
              }
        end
  done;
  (* Tail papers stranded by tight workloads, or left short by an
     expired deadline, are completed by the repair pass. *)
  if !remaining > 0 then Repair.complete inst assignment;
  assignment

let solve ?(ctx = Ctx.default) inst =
  solve_impl ?deadline:ctx.Ctx.deadline ?gains:ctx.Ctx.gains
    ~candidates:ctx.Ctx.candidates ?pool:ctx.Ctx.pool
    ~objective:ctx.Ctx.objective inst

let solve_rescan ?deadline ?(objective = Objective.coverage) inst =
  let obj = Objective.bind objective inst in
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  let dp = inst.Instance.delta_p and dr = inst.Instance.delta_r in
  let assignment = Assignment.empty ~n_papers:n_p in
  let workload = Array.make n_r 0 in
  let group_size = Array.make n_p 0 in
  let dim = Instance.n_topics inst in
  let gvec = Array.init n_p (fun _ -> Scoring.empty_group ~dim) in
  let stuck = ref false in
  let done_ = ref 0 in
  for _ = 1 to n_p * dp do
    if (not !stuck) && not (Wgrap_util.Timer.expired_opt deadline) then begin
    let best_gain = ref neg_infinity and best = ref None in
    for p = 0 to n_p - 1 do
      if group_size.(p) < dp then
        for r = 0 to n_r - 1 do
          if
            workload.(r) < dr
            && (not (Instance.forbidden inst ~paper:p ~reviewer:r))
            && not (List.mem r (Assignment.group assignment p))
          then begin
            let g = Objective.marginal_gain obj ~group:gvec.(p) ~paper:p ~reviewer:r in
            if g > !best_gain then begin
              best_gain := g;
              best := Some (r, p)
            end
          end
        done
    done;
    (match !best with
    | None -> stuck := true
    | Some (r, p) ->
        Assignment.add assignment ~paper:p ~reviewer:r;
        Topic_vector.extend_max_into ~dst:gvec.(p) inst.Instance.reviewers.(r);
        workload.(r) <- workload.(r) + 1;
        group_size.(p) <- group_size.(p) + 1;
        incr done_)
    end
  done;
  if !done_ < n_p * dp then Repair.complete inst assignment;
  assignment
