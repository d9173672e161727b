(* Shared incremental gain matrix: per-paper rows of marginal coverage
   gains, maintained alongside the evolving assignment. Rows live in
   lazily-allocated Bigarray (Float64, C-layout) buffers — off the OCaml
   heap, so pool domains read them without GC traffic — and are
   versioned per paper and recomputed with the sparse kernels; a group
   update that cannot change a row (it left the group vector untouched
   on the paper's support) does not invalidate it, so SDGA stages and
   SRA rounds recompute only the rows that actually moved.

   One row layout: a row holds one cell per entry of the paper's
   candidate list. Candidate-pruned (k > 0), that is the paper's top-k
   reviewers from the instance's inverted topic index, so the whole
   matrix is O(n_p * k); dense (k = 0), it is one identity list
   [|0..n_r-1|] shared by every row. No allocation is n_p * n_r-sized:
   the Eq. 9 column sums sweep the inverted index's postings, one paper
   at a time. *)

type row = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  inst : Instance.t;
  n_p : int;
  n_r : int;
  dim : int;
  k : int;  (* candidates per paper; 0 = dense *)
  all : int array;  (* dense: every reviewer id, the list of every row *)
  cands : int array option array;  (* pruned: per-paper ids, ascending *)
  rows : row option array;  (* lazy gain rows, one cell per candidate *)
  gvec : Topic_vector.t option array;  (* lazy group vector per paper *)
  version : int array;  (* current group version per paper *)
  row_version : int array;  (* version the row reflects; -1 = never *)
  mutable scratch_vec : float array;  (* dim, staging for set_group *)
  scratch : Candidate_index.scratch;  (* this matrix's sequential queries *)
  mutable denom : float array option;  (* cached Eq. 9 column sums *)
}

let create ?(candidates = 0) inst =
  if candidates < 0 then
    invalid_arg "Gain_matrix.create: candidates must be >= 0";
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  let dim = Instance.n_topics inst in
  (* k >= n_r prunes nothing: normalize to dense rows (the identity
     list), so such a width is bit-identical to dense by construction. *)
  let k = if candidates >= n_r then 0 else candidates in
  {
    inst;
    n_p;
    n_r;
    dim;
    k;
    all = (if k = 0 then Array.init n_r Fun.id else [||]);
    cands = Array.make n_p None;
    rows = Array.make n_p None;
    gvec = Array.make n_p None;
    version = Array.make n_p 0;
    row_version = Array.make n_p (-1);
    scratch_vec = [||];
    scratch = Candidate_index.scratch ();
    denom = None;
  }

let pruned t = t.k > 0
let candidate_count t = if t.k = 0 then t.n_r else t.k

(* Computed by scanning the row slots rather than kept as a shared
   counter: pool workers allocate rows concurrently during {!rebuild},
   and a lost increment would corrupt a counter where a scan cannot
   be wrong. O(n_p); telemetry, not a hot path. *)
let matrix_bytes t =
  let bytes = ref 0 in
  Array.iter
    (function
      | Some row -> bytes := !bytes + (8 * Bigarray.Array1.dim row)
      | None -> ())
    t.rows;
  !bytes

let group_vec t paper =
  match t.gvec.(paper) with
  | Some g -> g
  | None ->
      let g = Array.make t.dim 0. in
      t.gvec.(paper) <- Some g;
      g

(* [scratch] is the caller's: the matrix's own on the sequential paths,
   one per task in {!rebuild}'s row-parallel pass. *)
let candidates_in t scratch ~paper =
  if t.k = 0 then t.all
  else
    match t.cands.(paper) with
    | Some c -> c
    | None ->
        let c = Instance.candidates_with t.inst scratch ~k:t.k ~paper in
        t.cands.(paper) <- Some c;
        c

let candidates t ~paper = candidates_in t t.scratch ~paper

let row_buffer t paper cands =
  match t.rows.(paper) with
  | Some row -> row
  | None ->
      let row =
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
          (Array.length cands)
      in
      t.rows.(paper) <- Some row;
      row

let reset t =
  for p = 0 to t.n_p - 1 do
    (match t.gvec.(p) with
    | Some g -> Array.fill g 0 t.dim 0.
    | None -> ());
    t.version.(p) <- t.version.(p) + 1
  done

(* Whether a change of the group vector at topic [tt] can move row [p].
   For the three kinds whose contribution vanishes off the paper's
   support, only supported topics matter; Reviewer_coverage gains read
   the group everywhere. *)
let relevant t ~paper tt =
  match t.inst.Instance.scoring with
  | Scoring.Reviewer_coverage -> true
  | _ -> t.inst.Instance.papers.(paper).(tt) > 0.

let add t ~paper ~reviewer =
  let rs = Instance.reviewer_support t.inst reviewer in
  let idx = rs.Topic_vector.idx and nz = rs.Topic_vector.nz in
  let g = group_vec t paper in
  let changed = ref false in
  for k = 0 to Array.length idx - 1 do
    let tt = idx.(k) in
    if nz.(k) > g.(tt) then begin
      g.(tt) <- nz.(k);
      if not !changed then changed := relevant t ~paper tt
    end
  done;
  if !changed then t.version.(paper) <- t.version.(paper) + 1

let set_group t ~paper members =
  if Array.length t.scratch_vec = 0 then t.scratch_vec <- Array.make t.dim 0.;
  let nv = t.scratch_vec in
  Array.fill nv 0 t.dim 0.;
  List.iter
    (fun r ->
      let rs = Instance.reviewer_support t.inst r in
      let idx = rs.Topic_vector.idx and nz = rs.Topic_vector.nz in
      for k = 0 to Array.length idx - 1 do
        if nz.(k) > nv.(idx.(k)) then nv.(idx.(k)) <- nz.(k)
      done)
    members;
  let g = group_vec t paper in
  let changed = ref false in
  (match t.inst.Instance.scoring with
  | Scoring.Reviewer_coverage ->
      for tt = 0 to t.dim - 1 do
        if nv.(tt) <> g.(tt) then changed := true
      done
  | _ ->
      let ps = Instance.paper_support t.inst paper in
      let idx = ps.Topic_vector.idx in
      for k = 0 to Array.length idx - 1 do
        let tt = idx.(k) in
        if nv.(tt) <> g.(tt) then changed := true
      done);
  Array.blit nv 0 g 0 t.dim;
  if !changed then t.version.(paper) <- t.version.(paper) + 1

let version t ~paper = t.version.(paper)

let gain t ~paper ~reviewer =
  Scoring.gain_sparse t.inst.Instance.scoring ~group:(group_vec t paper)
    (Instance.reviewer_support t.inst reviewer)
    (Instance.paper_support t.inst paper)

(* Recompute a stale row: one O(nnz) sparse gain per candidate, written
   straight into the Bigarray row. The arithmetic is the per-reviewer
   body of [Scoring.gain_into], so every cell is bit-identical to the
   dense kernel's. *)
let ensure_row t scratch paper =
  if t.row_version.(paper) <> t.version.(paper) then begin
    let cands = candidates_in t scratch ~paper in
    let row = row_buffer t paper cands in
    let group = group_vec t paper in
    let ps = Instance.paper_support t.inst paper in
    for i = 0 to Array.length cands - 1 do
      Bigarray.Array1.set row i
        (Scoring.gain_sparse t.inst.Instance.scoring ~group
           (Instance.reviewer_support t.inst cands.(i))
           ps)
    done;
    t.row_version.(paper) <- t.version.(paper)
  end

let iter_row t ~paper f =
  ensure_row t t.scratch paper;
  let cands = candidates t ~paper in
  let row = row_buffer t paper cands in
  for i = 0 to Array.length cands - 1 do
    f ~reviewer:cands.(i) ~gain:(Bigarray.Array1.get row i)
  done

let fold_row t ~paper ~init f =
  let acc = ref init in
  iter_row t ~paper (fun ~reviewer ~gain -> acc := f !acc ~reviewer ~gain);
  !acc

(* Eq. 9 denominators: per-reviewer sums of the single-reviewer score
   matrix, COI cells excluded, accumulated in paper order. The matrix is
   never materialized. Under the three kinds with [f(v, 0) = 0] one
   posting sweep per paper yields every nonzero score of its row,
   bit-identical to the sparse kernel, and the reviewers it misses
   score exactly [0.], whose addition changes no sum: O(postings of the
   support) per paper, bit-identical to summing whole rows.
   Reviewer_coverage scores every reviewer with off-support mass, so
   its rows stream through one transient [Instance.score_row] each. *)
let column_sums ?deadline t scratch =
  let module Timer = Wgrap_util.Timer in
  let inst = t.inst in
  let denom = Array.make t.n_r 0. in
  for p = 0 to t.n_p - 1 do
    Timer.check_opt deadline;
    match inst.Instance.scoring with
    | Scoring.Reviewer_coverage ->
        let row = Instance.score_row inst ~paper:p in
        for r = 0 to t.n_r - 1 do
          if row.(r) <> Lap.Hungarian.forbidden then
            denom.(r) <- denom.(r) +. row.(r)
        done
    | Scoring.Weighted_coverage | Scoring.Paper_coverage | Scoring.Dot_product ->
        Candidate_index.iter_scores inst.Instance.cindex scratch
          ~scoring:inst.Instance.scoring (Instance.paper_support inst p)
          (fun r c ->
            if not (Instance.forbidden inst ~paper:p ~reviewer:r) then
              denom.(r) <- denom.(r) +. c)
  done;
  denom

let column_denominators t =
  match t.denom with
  | Some d -> d
  | None ->
      let d = column_sums t t.scratch in
      t.denom <- Some d;
      d

let prime ?deadline t =
  let module Timer = Wgrap_util.Timer in
  (* Every candidate list, then the Eq. 9 sums in paper order. *)
  for paper = 0 to t.n_p - 1 do
    Timer.check_opt deadline;
    ignore (candidates_in t t.scratch ~paper)
  done;
  match t.denom with
  | Some _ -> ()
  | None -> t.denom <- Some (column_sums ?deadline t t.scratch)

(* Row-parallel over [pool]: rows are independent by construction (one
   candidate list and one gain row per paper), and every worker polls
   the deadline so a budgeted caller can cut the pass off mid-way and
   fall back to lazy rows. Papers split into one contiguous chunk per
   pool task, and each chunk retrieves through its own scratch. *)
let rebuild ?pool ?deadline t =
  let module Timer = Wgrap_util.Timer in
  let module Pool = Wgrap_par.Pool in
  let fill scratch paper =
    Timer.check_opt deadline;
    ensure_row t scratch paper
  in
  match pool with
  | Some p when Pool.jobs p > 1 ->
      let chunks = Pool.jobs p in
      Pool.iter p ~n:chunks (fun c ->
          let scratch = Candidate_index.scratch () in
          for paper = c * t.n_p / chunks to ((c + 1) * t.n_p / chunks) - 1 do
            fill scratch paper
          done)
  | _ ->
      for paper = 0 to t.n_p - 1 do
        fill t.scratch paper
      done
