(** The assignment-quality scoring functions (Definition 1 and the
    alternatives of Appendix B, Table 5).

    Every function has the shape
    [score = (sum_t f(v[t], p[t])) / (sum_t p[t])]
    where [v] is a reviewer vector or a group vector and [f] is a
    per-topic contribution. All four satisfy the two conditions of
    Lemma 4 (per-topic additivity, monotonicity in the reviewer
    coordinate), hence the induced assignment objective is submodular
    and the SDGA guarantee applies to each. *)

type kind =
  | Weighted_coverage  (** default: min(v[t], p[t]) *)
  | Reviewer_coverage  (** v[t] when v[t] >= p[t], else 0 *)
  | Paper_coverage  (** p[t] when v[t] >= p[t], else 0 *)
  | Dot_product  (** v[t] * p[t] *)

val all : kind list
(** The four kinds, default first. *)

val name : kind -> string
(** Short identifier: ["c"], ["cR"], ["cP"], ["cD"]. *)

val contribution : kind -> float -> float -> float
(** [contribution kind v p] is the unnormalized per-topic term
    [f(v, p)]. *)

val score : kind -> Topic_vector.t -> Topic_vector.t -> float
(** [score kind v paper] is the normalized quality of reviewing [paper]
    with expertise [v] (a single reviewer's vector or a group vector).
    Returns 0 when the paper has zero mass. *)

val group_score : kind -> Topic_vector.t list -> Topic_vector.t -> float
(** Convenience: score of a reviewer group via its coordinatewise max. *)

val gain :
  kind -> group:Topic_vector.t -> Topic_vector.t -> Topic_vector.t -> float
(** [gain kind ~group r paper] is the marginal gain (Definition 8) of
    adding reviewer [r] to a group whose current vector is [group]:
    [score (max group r) paper - score group paper]. Computed without
    materializing the extended vector. *)

val empty_group : dim:int -> Topic_vector.t
(** All-zero group vector: the identity for group extension. It scores 0
    under every kind, since f(0, p) = 0 for all four contributions. *)

(** {1 Sparse kernels}

    O(nnz(paper)) variants of {!score} and {!gain} that iterate only
    over a compiled {!Topic_vector.support}. For [Weighted_coverage],
    [Paper_coverage] and [Dot_product] the per-topic contribution
    vanishes wherever the paper is zero, so these agree with the dense
    functions {e bitwise}; [Reviewer_coverage] needs an off-support
    mass correction and agrees to ~1e-15 relative. The dense functions
    above remain the reference oracle (see [test/test_kernel.ml]). *)

val score_sparse :
  kind -> v:Topic_vector.t -> v_mass:float -> Topic_vector.support -> float
(** [score_sparse kind ~v ~v_mass support] is
    [score kind v support.vec]. [v_mass] is the total mass of [v]; it is
    only read for [Reviewer_coverage] (pass [0.] if the kind is known
    not to need it, or [Topic_vector.(support v).mass]). O(nnz(paper)). *)

val gain_sparse :
  kind ->
  group:Topic_vector.t ->
  Topic_vector.support ->
  Topic_vector.support ->
  float
(** [gain_sparse kind ~group r p] is [gain kind ~group r.vec p.vec] in
    O(nnz(p)) (+ O(nnz(r)) for [Reviewer_coverage]). *)

(** {2 Gain rows against a maintained group}

    A {!Gain_matrix} group vector is kept in one of two layouts. Under
    [Weighted_coverage], [Paper_coverage] and [Dot_product] it lives on
    the paper's support only: slot [j] holds the group maximum on topic
    [p.idx.(j)], [nnz(p)] floats in all. Under [Reviewer_coverage],
    whose off-support correction reads the group everywhere, it is the
    dense vector. The kernels below add exactly the terms
    {!gain_sparse} adds, in its order, so each cell equals
    {!gain_sparse} on the dense group {e bitwise}. *)

val support_group : kind -> bool
(** Whether the kind keeps its group vector on the paper's support
    ([false] only for [Reviewer_coverage]). *)

val gain_cell :
  kind -> group:float array -> Topic_vector.support -> Topic_vector.support -> float
(** [gain_cell kind ~group r p] is [gain_sparse kind ~group:dense r p]
    with [group] in the kind's layout. *)

val gain_row :
  kind ->
  dst:(float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  group:float array ->
  ?block:float array ->
  reviewers:Topic_vector.support array ->
  cands:int array ->
  Topic_vector.support ->
  unit
(** [gain_row kind ~dst ~group ~reviewers ~cands p] sets [dst.(i)] to
    the marginal gain of reviewer [cands.(i)] against [group] (in the
    kind's layout) for paper [p]. With [block], the reviewers' weights
    on the paper's support come from it, row-major:
    [block.(i * nnz(p) + j)] is reviewer [cands.(i)]'s weight on topic
    [p.idx.(j)], so the row never reads a dense reviewer vector (only
    [Reviewer_coverage]'s off-support correction reads the reviewer's
    own support). Without it they are read from the dense vectors.
    O(|cands| * nnz(p)), no allocation. Raises [Invalid_argument] when
    [dst] is shorter than [cands], [group] is not in the kind's layout,
    or [block] is not [|cands| * nnz(p)] long. *)

val add_postings :
  kind -> acc:float array -> ids:int array -> ws:float array -> float -> unit
(** [add_postings kind ~acc ~ids ~ws pv] adds [contribution kind ws.(i) pv]
    to [acc.(ids.(i))] for every posting [i], in posting order: one
    topic's share of every posted reviewer's score numerator, the inner
    loop of {!Candidate_index}'s walk. No allocation. *)

val score_into :
  kind ->
  dst:float array ->
  reviewers:Topic_vector.support array ->
  Topic_vector.support ->
  unit
(** Fill [dst.(r)] with the single-reviewer score of every reviewer
    against one paper: one row of the score matrix, O(R * nnz(p)). *)

val group_score_sparse :
  kind -> Topic_vector.t list -> Topic_vector.support -> float
(** {!group_score} of a hypothetical group against a compiled paper:
    O(|group| * nnz(p)) for the three sparse kinds (dense fallback for
    [Reviewer_coverage]). Used by the local-search move evaluation. *)
