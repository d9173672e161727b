(* The first-class assignment objective every solver consults instead
   of reaching for Scoring / Instance.pair_score directly (enforced by
   the wgrap_lint "direct-scoring" rule). See the mli for the contract
   and DESIGN.md "Objectives" for the chain-routing rules. *)

type pair_gain = paper:int -> reviewer:int -> coverage_gain:float -> float

type spec =
  | Coverage
  | Blend of { preferences : float array array; lambda : float }
  | Min

let coverage = Coverage

let blend ?(lambda = 0.7) preferences =
  if lambda < 0. || lambda > 1. || Float.is_nan lambda then
    invalid_arg "Objective.blend: lambda must lie in [0, 1]";
  if Array.length preferences = 0 then
    invalid_arg "Objective.blend: empty preference matrix";
  Blend { preferences; lambda }

let min_coverage = Min

let name = function
  | Coverage -> "coverage"
  | Blend _ -> "blend"
  | Min -> "min"

(* Submodularity: coverage satisfies Lemma 4, and a blend adds a
   modular (group-independent) bid term to it. The min aggregates
   per-paper scores through the rank order, which breaks the per-topic
   additivity Lemma 4 needs — SDGA's stage-confinement guarantee does
   not apply, so Solver.cra routes the greedy-seeded SRA chain. *)
let submodular = function
  | Coverage | Blend _ -> true
  | Min -> false

type t = { spec : spec; inst : Instance.t }

let bind spec inst =
  (match spec with
  | Coverage | Min -> ()
  | Blend { preferences; _ } ->
      if
        Array.length preferences <> Instance.n_papers inst
        || Array.exists
             (fun row -> Array.length row <> Instance.n_reviewers inst)
             preferences
      then invalid_arg "Objective.bind: preference matrix shape mismatch");
  { spec; inst }

let spec t = t.spec
let view t = t.inst

(* The per-pair coverage component — the score Eq. 9/10
   keep-probabilities are built from. Identical to {!pair_score}
   except for Blend, whose pair score adds the modular
   bid term the removal model deliberately ignores (removal targets
   topical misfit; bids shape the refill through {!stage_gain}). *)
let coverage_score t ~paper ~reviewer =
  Instance.pair_score t.inst ~paper ~reviewer

let pair_score t ~paper ~reviewer =
  let c = Instance.pair_score t.inst ~paper ~reviewer in
  match t.spec with
  | Coverage | Min -> c
  | Blend { preferences; lambda } ->
      (lambda *. c)
      +. (1. -. lambda)
         *. preferences.(paper).(reviewer)
         /. float_of_int t.inst.Instance.delta_p

let marginal_gain t ~group ~paper ~reviewer =
  let g =
    Scoring.gain t.inst.Instance.scoring ~group
      t.inst.Instance.reviewers.(reviewer) t.inst.Instance.papers.(paper)
  in
  match t.spec with
  | Coverage | Min -> g
  | Blend { preferences; lambda } ->
      (lambda *. g)
      +. (1. -. lambda)
         *. preferences.(paper).(reviewer)
         /. float_of_int t.inst.Instance.delta_p

let per_paper_scores t assignment =
  Array.init (Instance.n_papers t.inst) (fun p ->
      Assignment.paper_score t.inst assignment p)

(* Leximin geometric weights for the min objective: rank weight
   [ratio^rank] over the ascending sort of the per-paper coverages —
   strictly decreasing, so the induced aggregate is inequality-averse
   (between equal-sum distributions it always prefers the flatter one,
   and raising a worse-off paper dominates raising a better-off one).
   The ratio is pinned so the weight halves across a quarter of the
   papers: steep enough that the coverage tail dominates, wide enough
   that every paper keeps non-negligible weight (>= 1/16 of the worst
   paper's) — a fixed ratio would ignore all but the first few dozen
   positions on large instances. *)
let leximin_ratio ~n_papers = 0.5 ** (4. /. float_of_int (max 1 n_papers))

(* SRA consults this only on {!value} plateaus — the min plateaus as
   soon as its worst papers are stuck, and the surrogate keeps
   refinement flattening the rest of the distribution instead of
   stalling. *)
let round_tie_break t =
  match t.spec with
  | Min ->
      let ratio = leximin_ratio ~n_papers:(Instance.n_papers t.inst) in
      Some
        (fun assignment ->
          let sorted = per_paper_scores t assignment in
          Array.sort Float.compare sorted;
          let acc = ref 0. and w = ref 1. in
          Array.iter
            (fun s ->
              acc := !acc +. (!w *. s);
              w := !w *. ratio)
            sorted;
          !acc)
  | Coverage | Blend _ -> None

let value t assignment =
  match t.spec with
  | Coverage -> Assignment.coverage t.inst assignment
  | Min ->
      let scores = per_paper_scores t assignment in
      if Array.length scores = 0 then 0.
      else Array.fold_left Float.min Float.infinity scores
  | Blend { preferences; lambda } ->
      let dp = float_of_int t.inst.Instance.delta_p in
      let acc = ref 0. in
      Array.iteri
        (fun p group ->
          let c = Assignment.paper_score t.inst assignment p in
          let bids =
            List.fold_left (fun s r -> s +. preferences.(p).(r)) 0. group
          in
          acc := !acc +. (lambda *. c) +. ((1. -. lambda) *. bids /. dp))
        assignment.Assignment.groups;
      !acc

(* A current-independent per-pair gain transform — what the lazy greedy
   heap can apply without invalidating on every commit. Only the blend
   has one (its bid term is modular); the min's rank-dependent boost
   needs the per-round {!stage_gain} instead. *)
let static_gain t : pair_gain option =
  match t.spec with
  | Coverage | Min -> None
  | Blend { preferences; lambda } ->
      let dp = float_of_int t.inst.Instance.delta_p in
      Some
        (fun ~paper ~reviewer ~coverage_gain ->
          (lambda *. coverage_gain)
          +. ((1. -. lambda) *. preferences.(paper).(reviewer) /. dp))

(* Per-paper refill boost = leximin geometric rank weight, plus 1 on
   the worst-covered paper (the one the value reads). The geometric
   part makes every refill stage inequality-averse across the whole
   distribution — contested reviewers tilt toward worse-covered papers
   at every rank, not only the worst one — while never zeroing a
   paper's gain, so the stage still gives every paper its best
   available reviewers. *)
let stage_gain t ~current : pair_gain option =
  match t.spec with
  | Coverage -> None
  | Blend _ -> static_gain t
  | Min ->
      let scores = per_paper_scores t current in
      let order = Array.init (Array.length scores) Fun.id in
      Array.sort
        (fun a b ->
          match Float.compare scores.(a) scores.(b) with
          | 0 -> Int.compare a b
          | c -> c)
        order;
      let ratio = leximin_ratio ~n_papers:(Array.length scores) in
      let boost = Array.make (Array.length scores) 0. in
      let w = ref 1. in
      Array.iteri
        (fun rank p ->
          boost.(p) <- (if rank = 0 then !w +. 1. else !w);
          w := !w *. ratio)
        order;
      Some (fun ~paper ~reviewer:_ ~coverage_gain -> boost.(paper) *. coverage_gain)
