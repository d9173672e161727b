type kind =
  | Weighted_coverage
  | Reviewer_coverage
  | Paper_coverage
  | Dot_product

let all = [ Weighted_coverage; Reviewer_coverage; Paper_coverage; Dot_product ]

let name = function
  | Weighted_coverage -> "c"
  | Reviewer_coverage -> "cR"
  | Paper_coverage -> "cP"
  | Dot_product -> "cD"

(* Inlined into this module's kernels, so their per-topic terms stay
   unboxed floats instead of one heap allocation per call. *)
let[@inline] contribution kind v p =
  match kind with
  | Weighted_coverage -> Float.min v p
  | Reviewer_coverage -> if v >= p then v else 0.
  | Paper_coverage -> if v >= p then p else 0.
  | Dot_product -> v *. p

let score kind v paper =
  if Array.length v <> Array.length paper then
    invalid_arg "Scoring.score: dimension mismatch";
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun t p ->
      num := !num +. contribution kind v.(t) p;
      den := !den +. p)
    paper;
  if !den <= 0. then 0. else !num /. !den

let group_score kind group paper = score kind (Topic_vector.group_max group) paper

let gain kind ~group r paper =
  if Array.length group <> Array.length paper || Array.length r <> Array.length paper
  then invalid_arg "Scoring.gain: dimension mismatch";
  let delta = ref 0. and den = ref 0. in
  Array.iteri
    (fun t p ->
      let g = group.(t) in
      let extended = Float.max g r.(t) in
      delta := !delta +. contribution kind extended p -. contribution kind g p;
      den := !den +. p)
    paper;
  if !den <= 0. then 0. else !delta /. !den

let empty_group ~dim = Array.make dim 0.

(* {1 Sparse kernels}

   All four scoring kinds have the shape
   [(sum_t f(v[t], p[t])) / (sum_t p[t])]. For Weighted_coverage,
   Paper_coverage and Dot_product, [f(v, 0) = 0] exactly, so summing
   only over the paper's support reproduces the dense sum bit for bit
   (the dense loop adds exact zeros elsewhere, and [support.mass] is
   accumulated in dense coordinate order). Reviewer_coverage is the
   exception: [f(v, 0) = v] whenever [v >= 0], so the off-support
   reviewer mass contributes — it is folded back in closed form from
   the precompiled masses, which reassociates the sum (agreement with
   the dense oracle is then ~1e-15 relative, not bitwise). *)

let score_sparse kind ~v ~v_mass (p : Topic_vector.support) =
  let idx = p.Topic_vector.idx and nz = p.Topic_vector.nz in
  let num = ref 0. in
  (match kind with
  | Reviewer_coverage ->
      (* Track the reviewer mass inside the support; the rest of the
         reviewer mass sits on topics where the paper is 0 and counts
         in full ([f(v, 0) = v]). *)
      let inside = ref 0. in
      for k = 0 to Array.length idx - 1 do
        let x = v.(idx.(k)) in
        num := !num +. contribution kind x nz.(k);
        inside := !inside +. x
      done;
      num := !num +. (v_mass -. !inside)
  | Weighted_coverage | Paper_coverage | Dot_product ->
      for k = 0 to Array.length idx - 1 do
        num := !num +. contribution kind v.(idx.(k)) nz.(k)
      done);
  if p.Topic_vector.mass <= 0. then 0. else !num /. p.Topic_vector.mass

let gain_sparse kind ~group (r : Topic_vector.support)
    (p : Topic_vector.support) =
  let idx = p.Topic_vector.idx and nz = p.Topic_vector.nz in
  let rvec = r.Topic_vector.vec in
  let delta = ref 0. in
  for k = 0 to Array.length idx - 1 do
    let t = idx.(k) in
    let pv = nz.(k) in
    let g = group.(t) in
    let extended = Float.max g rvec.(t) in
    delta := !delta +. contribution kind extended pv -. contribution kind g pv
  done;
  (match kind with
  | Reviewer_coverage ->
      (* Off the paper's support, f(v, 0) = v: extending the group
         changes the sum wherever the reviewer exceeds it, which can
         only happen on the reviewer's own support. *)
      let ridx = r.Topic_vector.idx and rnz = r.Topic_vector.nz in
      let pvec = p.Topic_vector.vec in
      for k = 0 to Array.length ridx - 1 do
        let t = ridx.(k) in
        if pvec.(t) <= 0. then begin
          let d = rnz.(k) -. group.(t) in
          if d > 0. then delta := !delta +. d
        end
      done
  | Weighted_coverage | Paper_coverage | Dot_product -> ());
  if p.Topic_vector.mass <= 0. then 0. else !delta /. p.Topic_vector.mass

let score_into kind ~dst ~reviewers (p : Topic_vector.support) =
  if Array.length dst <> Array.length reviewers then
    invalid_arg "Scoring.score_into: dst length mismatch";
  for r = 0 to Array.length reviewers - 1 do
    let rs = reviewers.(r) in
    dst.(r) <-
      score_sparse kind ~v:rs.Topic_vector.vec ~v_mass:rs.Topic_vector.mass p
  done

let gain_into kind ~dst ~group ~reviewers (p : Topic_vector.support) =
  if Array.length dst <> Array.length reviewers then
    invalid_arg "Scoring.gain_into: dst length mismatch";
  for r = 0 to Array.length reviewers - 1 do
    dst.(r) <- gain_sparse kind ~group reviewers.(r) p
  done

let group_score_sparse kind vecs (p : Topic_vector.support) =
  match kind with
  | Reviewer_coverage ->
      (* Off-support reviewer mass counts; no sparse shortcut without a
         maintained group mass — defer to the dense oracle. *)
      score kind (Topic_vector.group_max vecs) p.Topic_vector.vec
  | Weighted_coverage | Paper_coverage | Dot_product ->
      if vecs = [] then invalid_arg "Scoring.group_score_sparse: empty group";
      let idx = p.Topic_vector.idx and nz = p.Topic_vector.nz in
      let num = ref 0. in
      for k = 0 to Array.length idx - 1 do
        let t = idx.(k) in
        let v = List.fold_left (fun acc m -> Float.max acc m.(t)) 0. vecs in
        num := !num +. contribution kind v nz.(k)
      done;
      if p.Topic_vector.mass <= 0. then 0. else !num /. p.Topic_vector.mass
