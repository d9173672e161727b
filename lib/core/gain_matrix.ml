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
   [|0..n_r-1|] shared by every row. A pruned paper also keeps its
   candidates' weights on its support (a k x nnz(p) block), so a row
   recompute never reads a dense reviewer vector. No allocation is
   n_p * n_r-sized: the Eq. 9 column sums sweep the inverted index's
   postings, one paper at a time. *)

type row = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type stage_scratch = {
  mutable value : float array;
  mutable reviewer : int array;
  mutable len : int;
  mutable start : int array;
  mutable stop : int array;
  mutable heap : int array;
  mutable mask : bool array;
  mutable left : int array;
  mutable chosen : int array;
}

type t = {
  inst : Instance.t;
  n_p : int;
  n_r : int;
  dim : int;
  k : int;  (* candidates per paper; 0 = dense *)
  all : int array;  (* dense: every reviewer id, the list of every row *)
  cands : int array option array;  (* pruned: per-paper ids, ascending *)
  blocks : float array array;
      (* pruned: per paper, the candidates' weights on its support,
         |cands| x nnz(p) row-major; set with [cands] *)
  rows : row option array;  (* lazy gain rows, one cell per candidate *)
  gvec : float array option array;
      (* lazy group vector per paper, in [Scoring]'s layout: on the
         paper's support, or over every topic under Reviewer_coverage *)
  version : int array;  (* current group version per paper *)
  row_version : int array;  (* version the row reflects; -1 = never *)
  mutable scratch_vec : float array;  (* staging for set_group *)
  scratch : Candidate_index.scratch;  (* this matrix's sequential queries *)
  stage : stage_scratch;  (* the stage matcher's buffers *)
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
    blocks = Array.make n_p [||];
    rows = Array.make n_p None;
    gvec = Array.make n_p None;
    version = Array.make n_p 0;
    row_version = Array.make n_p (-1);
    scratch_vec = [||];
    scratch = Candidate_index.scratch ();
    stage =
      {
        value = [||];
        reviewer = [||];
        len = 0;
        start = [||];
        stop = [||];
        heap = [||];
        mask = [||];
        left = [||];
        chosen = [||];
      };
    denom = None;
  }

let pruned t = t.k > 0
let candidate_count t = if t.k = 0 then t.n_r else t.k

let stage_scratch t = t.stage

(* Computed by scanning the row and block slots rather than kept as a
   shared counter: pool workers allocate both concurrently during
   {!rebuild}, and a lost increment would corrupt a counter where a
   scan cannot be wrong. O(n_p); telemetry, not a hot path. *)
let matrix_bytes t =
  let bytes = ref 0 in
  Array.iter
    (function
      | Some row -> bytes := !bytes + (8 * Bigarray.Array1.dim row)
      | None -> ())
    t.rows;
  Array.iter (fun b -> bytes := !bytes + (8 * Array.length b)) t.blocks;
  !bytes

let support_group t = Scoring.support_group t.inst.Instance.scoring

let group_vec t paper =
  match t.gvec.(paper) with
  | Some g -> g
  | None ->
      let len =
        if support_group t then
          Array.length (Instance.paper_support t.inst paper).Topic_vector.idx
        else t.dim
      in
      let g = Array.make len 0. in
      t.gvec.(paper) <- Some g;
      g

(* The candidates' weights on the paper's support, gathered once from
   their dense vectors so a row recompute reads one contiguous block:
   [w.(i * m + j)] is candidate [i]'s weight on topic [idx.(j)]. *)
let weight_block t paper cands =
  let idx = (Instance.paper_support t.inst paper).Topic_vector.idx in
  let m = Array.length idx in
  let w = Array.create_float (Array.length cands * m) in
  Array.iteri
    (fun i r ->
      let rvec = (Instance.reviewer_support t.inst r).Topic_vector.vec in
      for j = 0 to m - 1 do
        w.((i * m) + j) <- rvec.(idx.(j))
      done)
    cands;
  w

(* [scratch] is the caller's: the matrix's own on the sequential paths,
   one per task in {!rebuild}'s row-parallel pass. *)
let candidates_in t scratch ~paper =
  if t.k = 0 then t.all
  else
    match t.cands.(paper) with
    | Some c -> c
    | None ->
        let c = Instance.candidates_with t.inst scratch ~k:t.k ~paper in
        t.blocks.(paper) <- weight_block t paper c;
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
    | Some g -> Array.fill g 0 (Array.length g) 0.
    | None -> ());
    t.version.(p) <- t.version.(p) + 1
  done

(* Every slot of a support-indexed group is a topic the paper's gains
   read, so any change there moves the row; a Reviewer_coverage group
   is read everywhere. *)
let add t ~paper ~reviewer =
  let rs = Instance.reviewer_support t.inst reviewer in
  let g = group_vec t paper in
  let changed = ref false in
  if support_group t then begin
    let idx = (Instance.paper_support t.inst paper).Topic_vector.idx in
    let rvec = rs.Topic_vector.vec in
    for j = 0 to Array.length idx - 1 do
      let v = rvec.(idx.(j)) in
      if v > g.(j) then begin
        g.(j) <- v;
        changed := true
      end
    done
  end
  else begin
    let idx = rs.Topic_vector.idx and nz = rs.Topic_vector.nz in
    for k = 0 to Array.length idx - 1 do
      let tt = idx.(k) in
      if nz.(k) > g.(tt) then begin
        g.(tt) <- nz.(k);
        changed := true
      end
    done
  end;
  if !changed then t.version.(paper) <- t.version.(paper) + 1

(* The new group vector is staged in [scratch_vec] (its first
   [Array.length g] slots), compared with the current one, then
   copied over it. *)
let set_group t ~paper members =
  let g = group_vec t paper in
  let len = Array.length g in
  if Array.length t.scratch_vec < len then t.scratch_vec <- Array.make t.dim 0.;
  let nv = t.scratch_vec in
  Array.fill nv 0 len 0.;
  (if support_group t then begin
     let idx = (Instance.paper_support t.inst paper).Topic_vector.idx in
     List.iter
       (fun r ->
         let rvec = (Instance.reviewer_support t.inst r).Topic_vector.vec in
         for j = 0 to len - 1 do
           let v = rvec.(idx.(j)) in
           if v > nv.(j) then nv.(j) <- v
         done)
       members
   end
   else
     List.iter
       (fun r ->
         let rs = Instance.reviewer_support t.inst r in
         let idx = rs.Topic_vector.idx and nz = rs.Topic_vector.nz in
         for k = 0 to Array.length idx - 1 do
           if nz.(k) > nv.(idx.(k)) then nv.(idx.(k)) <- nz.(k)
         done)
       members);
  let changed = ref false in
  for i = 0 to len - 1 do
    if nv.(i) <> g.(i) then changed := true
  done;
  Array.blit nv 0 g 0 len;
  if !changed then t.version.(paper) <- t.version.(paper) + 1

let version t ~paper = t.version.(paper)

let gain t ~paper ~reviewer =
  Scoring.gain_cell t.inst.Instance.scoring ~group:(group_vec t paper)
    (Instance.reviewer_support t.inst reviewer)
    (Instance.paper_support t.inst paper)

(* Recompute a stale row with one [Scoring.gain_row] pass, written
   straight into the Bigarray row: from the weight block when pruned,
   from the reviewers' dense vectors on a dense matrix (which keeps no
   block). Either way every cell is bit-identical to
   [Scoring.gain_sparse]. *)
let ensure_row t scratch paper =
  if t.row_version.(paper) <> t.version.(paper) then begin
    let cands = candidates_in t scratch ~paper in
    let block = if t.k = 0 then None else Some t.blocks.(paper) in
    Scoring.gain_row t.inst.Instance.scoring ~dst:(row_buffer t paper cands)
      ~group:(group_vec t paper) ?block ~reviewers:t.inst.Instance.rsupp ~cands
      (Instance.paper_support t.inst paper);
    t.row_version.(paper) <- t.version.(paper)
  end

let row t ~paper =
  ensure_row t t.scratch paper;
  row_buffer t paper (candidates t ~paper)

let iter_row t ~paper f =
  let row = row t ~paper in
  let cands = candidates t ~paper in
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
