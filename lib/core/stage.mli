(** Stage-WGRAP (Definition 9): add exactly one reviewer to every paper,
    maximizing the total marginal gain, subject to a per-reviewer
    capacity for this stage. A PTIME linear-assignment problem — the
    paper names two classic solvers ("Hungarian algorithm, minimum-cost
    flow assignment"); this module uses the Hungarian algorithm, which
    reached the same stage optima 3–15x faster in the ablation recorded
    in EXPERIMENTS.md. Shared by SDGA (Algorithm 2), the stochastic
    refinement (Algorithm 3, line 8), and the bid-aware extension. *)

val solve :
  ?pair_gain:(paper:int -> reviewer:int -> coverage_gain:float -> float) ->
  gains:Gain_matrix.t ->
  ?deadline:Wgrap_util.Timer.deadline ->
  Instance.t ->
  current:Assignment.t ->
  capacity:int array ->
  (int * int) list
(** [solve ~gains inst ~current ~capacity] returns [(paper, reviewer)]
    pairs — one per paper, in paper order. The gain of a pair
    is the marginal gain of the reviewer w.r.t. the paper's current
    group; pairs are excluded when the reviewer is already in the group,
    the pair is a COI, or [capacity.(r) = 0].

    [gains] supplies the marginal gains: a shared {!Gain_matrix} whose
    group state the caller keeps consistent with [current] (SDGA and SRA
    reuse one matrix across stages/rounds this way, so only rows whose
    group vector moved are recomputed).

    A {e candidate-pruned} matrix ({!Gain_matrix.pruned}) switches the
    whole stage to the pruned backend: the edge set is each paper's
    candidate list under the same masks, solved exactly (Hungarian on a
    compact matrix over just the touched reviewers' capacity units)
    while the work fits a gate, and by deterministic descending-gain
    matching past it — with a per-paper full scan only for papers the
    candidate edges could not place. Nothing [rows x n_r]-sized is
    built. [Failure] then means no reviewer at all had capacity left.
    The greedy matching takes the edges in the total order value desc
    (as [Float.compare] ranks values), paper asc, reviewer asc, through
    a lazy per-paper heap merge that reads only the edges it needs. The
    edges and the matcher's buffers live in [gains]'s
    {!Gain_matrix.stage_scratch}, reused by every later stage on the
    same matrix.

    [pair_gain] replaces the objective of the stage: it receives the
    plain coverage gain and returns the value to maximize — the hook the
    bid-aware extension ({!Bids}) uses to blend in reviewer preferences.
    The default is the identity on [coverage_gain].

    A dense [gains] matrix solves the stage with the Hungarian algorithm
    on a matrix with one replicated column per remaining capacity unit.
    The two backends break gain ties differently.

    Raises [Failure] if no feasible completion exists, and
    [Wgrap_util.Timer.Expired] if [deadline] fires inside the backend (a
    half-solved stage cannot be returned; callers catch and keep their
    incumbent). *)
