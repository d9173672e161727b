(** The first-class assignment objective.

    Solvers consult a bound objective ({!t}) for every score they need
    — pair scores, marginal gains, per-paper and whole-assignment
    values — instead of reaching for {!Scoring} or
    {!Instance.pair_score} directly (the wgrap_lint [direct-scoring]
    rule enforces this in solver modules). A {!spec} names the backend
    and its parameters; {!bind} attaches it to a concrete instance,
    which it never copies or rewrites: every solver scores the instance
    it was called with.

    Backends:
    - [Coverage] — the paper's weighted-coverage objective (Eq. 9),
      the default and the bit-identical parity oracle.
    - [Blend] — coverage λ-blended with a modular reviewer-preference
      (bid) term; the generalization of the old [Bids] solver entry.
    - [Min] — the worst-off paper's coverage (egalitarian fairness).
      {b Not} submodular: Lemma 4's per-topic additivity fails, so
      {!Solver.cra} routes greedy-seeded SRA chains instead of
      SDGA-led ones.

    Every backend is monotone (adding a reviewer never lowers the
    value). Chain-routing contract: a solver ladder may lead with SDGA
    only if [submodular spec]; otherwise it must start from a greedy
    (exchange-safe) seed. See DESIGN.md "Objectives". *)

type pair_gain = paper:int -> reviewer:int -> coverage_gain:float -> float
(** A per-pair gain transform: maps a raw coverage marginal gain to the
    objective's stage gain for that (paper, reviewer) cell. The hook
    {!Stage} and the greedy heap apply without knowing the backend. *)

type spec =
  | Coverage
  | Blend of { preferences : float array array; lambda : float }
      (** [lambda * coverage + (1 - lambda) * bid / delta_p], with
          [preferences] a [P x R] non-negative bid matrix. *)
  | Min  (** The smallest per-paper coverage; [0.] with no papers. *)

(** {1 Constructors} *)

val coverage : spec

val blend : ?lambda:float -> float array array -> spec
(** Default [lambda = 0.7] (the paper's bid-blend default). Raises
    [Invalid_argument] unless [lambda] lies in [0, 1] and the matrix is
    non-empty; the shape is checked against the instance at {!bind}. *)

val min_coverage : spec
(** [Min]: maximize the worst-off paper. *)

(** {1 Spec inspection} *)

val name : spec -> string
(** ["coverage"], ["blend"] or ["min"]; [--objective] accepts
    ["coverage"] and ["min"]. *)

val submodular : spec -> bool
(** Whether the induced set function satisfies Lemma 4's conditions, so
    the SDGA stage-confinement guarantee applies. False for [Min]. *)

(** {1 Binding} *)

type t
(** A spec bound to an instance: the thing solvers score against. *)

val bind : spec -> Instance.t -> t
(** Validates spec-vs-instance shape ([Blend] matrix dimensions) and
    binds the instance as given, without copying it. Raises
    [Invalid_argument] on mismatch. *)

val spec : t -> spec

val view : t -> Instance.t
(** The bound instance, physically the one passed to {!bind}. *)

(** {1 Scoring} *)

val pair_score : t -> paper:int -> reviewer:int -> float
(** The objective's single-reviewer score c(r, p) — includes the bid
    term for [Blend]. *)

val coverage_score : t -> paper:int -> reviewer:int -> float
(** The pure coverage component — what SRA's Eq. 10
    keep-probabilities are built from (removal models topical misfit;
    modular terms steer the refill via {!stage_gain} instead). Equal to
    {!pair_score} for every backend except [Blend]. *)

val marginal_gain :
  t -> group:Topic_vector.t -> paper:int -> reviewer:int -> float
(** Definition 8 marginal gain of adding [reviewer] to a group whose
    current coordinatewise-max vector is [group], plus any modular
    term. *)

val per_paper_scores : t -> Assignment.t -> float array

val value : t -> Assignment.t -> float
(** The objective value of a (possibly partial) assignment — what SRA
    acceptance, checkpoint records and {!Summary} report. *)

(** {1 Solver hooks} *)

val static_gain : t -> pair_gain option
(** A current-assignment-independent gain transform, if the backend has
    one ([Blend]'s bid term is modular). [None] means raw coverage
    gains are already correct ([Coverage]) or the transform
    is rank-dependent and must be recomputed per round ([Min]). Safe to
    bake into a lazy greedy heap. *)

val stage_gain : t -> current:Assignment.t -> pair_gain option
(** The per-stage gain transform given the current partial assignment:
    [static_gain] when that exists; for [Min], a rank-boost built from
    the current per-paper scores — the leximin geometric weight of the
    paper's ascending rank (see {!round_tie_break}), plus 1 on the
    worst-covered paper — so every refill stage steers contested
    reviewers toward worse-covered papers, with extra pull on the
    paper the value reads. *)

val round_tie_break : t -> (Assignment.t -> float) option
(** A secondary score SRA may consult when {!value} plateaus within
    epsilon: accepting tie-rounds that raise it keeps refinement
    moving along the objective's level sets. [Some] only for [Min] —
    a leximin surrogate (geometric rank weights, ratio
    pinned so the weight halves across a quarter of the papers, over
    the ascending-sorted per-paper coverages) that flattens the
    coverage tail while the worst papers are stuck. [None]
    ([Coverage], [Blend]) leaves acceptance strictly
    value-improving — the bit-parity contract of the default chain. *)
