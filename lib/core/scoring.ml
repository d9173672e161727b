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

(* {1 Gain rows against a maintained group}

   [Gain_matrix] keeps a paper's group vector on the paper's support
   under the three kinds with [f(v, 0) = 0] (slot [j] is topic
   [p.idx.(j)]), and over every topic under Reviewer_coverage, whose
   off-support correction reads the group everywhere. The kernels below
   take the group in that layout and add exactly the terms
   [gain_sparse] adds, in its order, so every cell is bitwise equal to
   [gain_sparse] on the dense group. *)

let[@inline] gain_term kind delta g w pv =
  delta +. contribution kind (Float.max g w) pv -. contribution kind g pv

let support_group kind = match kind with Reviewer_coverage -> false | _ -> true

let gain_cell kind ~group (r : Topic_vector.support) (p : Topic_vector.support) =
  if not (support_group kind) then gain_sparse kind ~group r p
  else begin
    let idx = p.Topic_vector.idx and nz = p.Topic_vector.nz in
    let rvec = r.Topic_vector.vec in
    let delta = ref 0. in
    for j = 0 to Array.length idx - 1 do
      delta := gain_term kind !delta group.(j) rvec.(idx.(j)) nz.(j)
    done;
    if p.Topic_vector.mass <= 0. then 0. else !delta /. p.Topic_vector.mass
  end

(* The cell loop is written out here rather than calling a per-cell
   helper: a helper with loops is not inlined, and its float result
   would be boxed once per cell. *)
let gain_row kind
    ~(dst : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t)
    ~group ?block ~reviewers ~cands (p : Topic_vector.support) =
  let idx = p.Topic_vector.idx and nz = p.Topic_vector.nz in
  let n = Array.length cands and m = Array.length idx in
  let mass = p.Topic_vector.mass and pvec = p.Topic_vector.vec in
  let sup = support_group kind in
  if Bigarray.Array1.dim dst < n then
    invalid_arg "Scoring.gain_row: dst shorter than cands";
  if Array.length group <> (if sup then m else Array.length pvec) then
    invalid_arg "Scoring.gain_row: group layout mismatch";
  let w, has_block =
    match block with
    | Some w ->
        if Array.length w <> n * m then
          invalid_arg "Scoring.gain_row: block is not cands x nnz(paper)";
        (w, true)
    | None -> ([||], false)
  in
  for i = 0 to n - 1 do
    let r = reviewers.(cands.(i)) in
    let rvec = r.Topic_vector.vec and off = i * m in
    let delta = ref 0. in
    if sup then begin
      if has_block then
        for j = 0 to m - 1 do
          delta :=
            gain_term kind !delta (Array.unsafe_get group j)
              (Array.unsafe_get w (off + j)) (Array.unsafe_get nz j)
        done
      else
        for j = 0 to m - 1 do
          delta :=
            gain_term kind !delta (Array.unsafe_get group j)
              rvec.(Array.unsafe_get idx j) (Array.unsafe_get nz j)
        done
    end
    else begin
      for j = 0 to m - 1 do
        let t = Array.unsafe_get idx j in
        let x = if has_block then Array.unsafe_get w (off + j) else rvec.(t) in
        delta := gain_term kind !delta group.(t) x (Array.unsafe_get nz j)
      done;
      (* The off-support correction, as in [gain_sparse]. *)
      let ridx = r.Topic_vector.idx and rnz = r.Topic_vector.nz in
      for k = 0 to Array.length ridx - 1 do
        let t = Array.unsafe_get ridx k in
        if pvec.(t) <= 0. then begin
          let d = Array.unsafe_get rnz k -. group.(t) in
          if d > 0. then delta := !delta +. d
        end
      done
    end;
    Bigarray.Array1.unsafe_set dst i (if mass <= 0. then 0. else !delta /. mass)
  done

let add_postings kind ~acc ~ids ~ws pv =
  if Array.length ws <> Array.length ids then
    invalid_arg "Scoring.add_postings: ids and ws differ in length";
  for i = 0 to Array.length ids - 1 do
    let r = ids.(i) in
    acc.(r) <- acc.(r) +. contribution kind (Array.unsafe_get ws i) pv
  done

let score_into kind ~dst ~reviewers (p : Topic_vector.support) =
  if Array.length dst <> Array.length reviewers then
    invalid_arg "Scoring.score_into: dst length mismatch";
  for r = 0 to Array.length reviewers - 1 do
    let rs = reviewers.(r) in
    dst.(r) <-
      score_sparse kind ~v:rs.Topic_vector.vec ~v_mass:rs.Topic_vector.mass p
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
      let vecs = Array.of_list vecs in
      let num = ref 0. in
      for k = 0 to Array.length idx - 1 do
        let t = idx.(k) in
        (* The group maximum, taken in list order from 0. *)
        let v = ref 0. in
        for i = 0 to Array.length vecs - 1 do
          v := Float.max !v vecs.(i).(t)
        done;
        num := !num +. contribution kind !v nz.(k)
      done;
      if p.Topic_vector.mass <= 0. then 0. else !num /. p.Topic_vector.mass
