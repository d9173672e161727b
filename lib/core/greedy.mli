(** The greedy algorithm of Long et al. [22] (Section 4.1): repeatedly
    add the feasible (reviewer, paper) pair with the largest marginal
    gain until every paper has [delta_p] reviewers. 1/3-approximation
    for any submodular objective over the assignment 2-system — the
    state of the art this paper improves on.

    Implemented lazily: gains live in a max-heap and are re-evaluated on
    pop. Because the objective is submodular, a stale gain only
    over-estimates, so the first entry whose refreshed gain still tops
    the heap is globally maximal. *)

val solve : ?ctx:Ctx.t -> Instance.t -> Assignment.t
(** Run environment comes from [ctx] ({!Ctx.default} when omitted).
    [ctx.gains], when set, is reset and used as the shared gain matrix
    (group vectors, versions, sparse gain evaluation); otherwise a
    private one is created with [ctx.candidates] as its width — on a
    candidate-pruned matrix the heap seeds only candidate pairs, so
    seeding is O(n_p * k) instead of O(n_p * n_r), and non-candidate
    reviewers reach papers only through the repair pass (like zero-gain
    dense pairs). The heap is seeded at the true candidate
    count — COI pairs and zero-gain seeds are skipped; the latter can
    never beat a positive gain later (gains only shrink), so dropping
    them changes nothing the repair pass would not fill anyway. When
    [ctx.deadline] expires mid-solve, the pairs committed so far are
    kept and every short paper is completed by {!Repair} (plain
    best-pair fills), so the result stays feasible on any instance where
    repair chains exist. [ctx.pool], when parallel, prefills the gain
    rows the heap seeding reads across domains
    ({!Gain_matrix.rebuild}); the pop-commit loop itself is inherently
    sequential. Bit-identical at any job count.

    [ctx.objective]'s {!Objective.static_gain} transform (when it has
    one — Blend's modular bid term) is applied to every seeded and
    refreshed heap gain; rank-dependent objectives (min) have no static
    transform and run on raw coverage gains — greedy is their safe
    seed, the objective-aware refinement happens in {!Sra}. *)

val solve_rescan :
  ?deadline:Wgrap_util.Timer.deadline ->
  ?objective:Objective.spec ->
  Instance.t ->
  Assignment.t
(** Ablation variant: full O(P*R) rescan per iteration instead of the
    lazy heap, with every gain taken from the bound objective's
    {!Objective.marginal_gain}. Every step picks a maximal-gain pair in
    both variants, but gain ties may break differently and cascade, so
    totals agree only approximately. *)
