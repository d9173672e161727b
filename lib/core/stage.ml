module Timer = Wgrap_util.Timer

(* The value a pair is matched on: its coverage gain, or [pair_gain]'s
   transform of it. Without a transform no closure is called, so the
   gain stays an unboxed float. *)
let[@inline] pair_value pair_gain ~paper ~reviewer g =
  match pair_gain with
  | None -> g
  | Some f -> f ~paper ~reviewer ~coverage_gain:g

(* Set or clear the members' entries of a per-reviewer mask. *)
let rec set_mask mask v = function
  | [] -> ()
  | r :: rest ->
      mask.(r) <- v;
      set_mask mask v rest

(* The per-reviewer and per-paper buffers of the stage scratch, grown
   to this instance's sizes. *)
let stage_buffers gm inst =
  let s = Gain_matrix.stage_scratch gm in
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  if Array.length s.mask < n_r then begin
    s.mask <- Array.make n_r false;
    s.left <- Array.make n_r 0
  end;
  if Array.length s.chosen < n_p then begin
    s.start <- Array.make (n_p + 1) 0;
    s.stop <- Array.make n_p 0;
    s.heap <- Array.make n_p 0;
    s.chosen <- Array.make n_p (-1)
  end;
  s

(* Dense row builder: paper [p]'s marginal gains from the shared gain
   matrix, masked — exhausted capacity, current group members (the
   scratch's [mask], set and cleared around the row instead of a
   per-cell list scan) and COI pairs become [forbidden] — and passed
   through [pair_gain], into [raw]. *)
let fill_row pair_gain inst ~gm ~capacity ~(s : Gain_matrix.stage_scratch) ~raw
    ~current p =
  let mask = s.mask in
  let members = Assignment.group current p in
  set_mask mask true members;
  let cands = Gain_matrix.candidates gm ~paper:p in
  let row = Gain_matrix.row gm ~paper:p in
  for i = 0 to Array.length cands - 1 do
    let r = cands.(i) in
    raw.(r) <-
      (if capacity.(r) = 0 || mask.(r) || Instance.forbidden inst ~paper:p ~reviewer:r
       then Lap.Hungarian.forbidden
       else pair_value pair_gain ~paper:p ~reviewer:r (Bigarray.Array1.get row i))
  done;
  set_mask mask false members

(* {1 Candidate-pruned backend}

   When the shared matrix is candidate-pruned, the stage never
   materializes an [rows x n_r] score matrix: the edge set is each
   paper's candidate list, masked exactly like [fill_row] masks a dense
   row. Small stages still solve exactly — the Hungarian algorithm on a
   compact matrix over just the reviewers the edges touch — so at the
   paper's evaluation scale the pruned stage is stage-optimal within
   the candidate set. Past a work gate (where a Hungarian run would
   dwarf edge collection) the stage falls back to greedy descending-
   gain matching, with a per-paper full scan ({!Gain_matrix.gain}, any
   reviewer) only for papers the candidate edges could not place, and
   [Failure] only when no reviewer at all has capacity left.

   The edges live in the matrix's stage scratch as a struct of arrays
   (values and reviewers), each paper's in one slot range. *)

(* A compact Hungarian run costs ~rows^2 * cols; keep it under the gate
   so a pruned stage is never slower than its own edge collection. *)
let hungarian_work_gate = 100_000_000

let reserve (s : Gain_matrix.stage_scratch) n =
  if Array.length s.value < n then begin
    let cap = max n (max 1024 (2 * Array.length s.value)) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 s.len;
      b
    in
    s.value <- grow s.value 0.;
    s.reviewer <- grow s.reviewer 0
  end

(* Each paper's edges are the masked cells of its row, in ascending
   reviewer id, in slots [start.(p) .. start.(p + 1) - 1]. *)
let collect_edges pair_gain gm ?deadline inst ~(s : Gain_matrix.stage_scratch)
    ~current ~capacity =
  let mask = s.mask in
  s.len <- 0;
  for p = 0 to Instance.n_papers inst - 1 do
    Timer.check_opt deadline;
    s.start.(p) <- s.len;
    let members = Assignment.group current p in
    set_mask mask true members;
    let cands = Gain_matrix.candidates gm ~paper:p in
    let row = Gain_matrix.row gm ~paper:p in
    reserve s (s.len + Array.length cands);
    for i = 0 to Array.length cands - 1 do
      let r = cands.(i) in
      if
        capacity.(r) > 0 && (not mask.(r))
        && not (Instance.forbidden inst ~paper:p ~reviewer:r)
      then begin
        let n = s.len in
        s.value.(n) <-
          pair_value pair_gain ~paper:p ~reviewer:r (Bigarray.Array1.get row i);
        s.reviewer.(n) <- r;
        s.len <- n + 1
      end
    done;
    set_mask mask false members
  done;
  s.start.(Instance.n_papers inst) <- s.len

(* Exact assignment over the candidate edges: Hungarian on a matrix
   whose columns are the capacity units of just the reviewers any edge
   touches. Returns [None] when the edge set cannot cover every paper
   (the greedy path then tries its full-scan completion). *)
let compact_hungarian ?deadline ~rows ~capacity (s : Gain_matrix.stage_scratch)
    =
  let module IM = Map.Make (Int) in
  let touched = ref IM.empty in
  for e = 0 to s.len - 1 do
    touched := IM.add s.reviewer.(e) () !touched
  done;
  let owner = ref [] in
  IM.iter
    (fun r () ->
      for _ = 1 to min capacity.(r) rows do
        owner := r :: !owner
      done)
    !touched;
  let owner = Array.of_list (List.rev !owner) in
  let cols = Array.length owner in
  if cols < rows then None
  else begin
    let col_of = Hashtbl.create (Array.length owner) in
    Array.iteri
      (fun c r -> if not (Hashtbl.mem col_of r) then Hashtbl.add col_of r c)
      owner;
    let score =
      Array.init rows (fun _ -> Array.make cols Lap.Hungarian.forbidden)
    in
    for p = 0 to rows - 1 do
      for e = s.start.(p) to s.start.(p + 1) - 1 do
        let r = s.reviewer.(e) in
        let c = ref (Hashtbl.find col_of r) in
        while !c < cols && owner.(!c) = r do
          score.(p).(!c) <- s.value.(e);
          incr c
        done
      done
    done;
    match Lap.Hungarian.maximize ?deadline score with
    | cols_of_rows, _ -> Some (Array.map (fun c -> owner.(c)) cols_of_rows)
    | exception Failure _ -> None
  end

(* Greedy descending-gain matching over the candidate edges, then a
   full scan for any paper left over. Returns the scratch's [chosen].

   The edges are taken in matching order: higher value first, as
   [Float.compare] ranks values (a NaN below every number), then the
   earlier paper, then the lower reviewer id — a total order. Rather
   than sorting every edge, the matcher merges the papers lazily: each
   unmatched paper keeps its best live edge at the front of its slots
   ([start.(p)]), and a binary heap of papers, keyed by that edge,
   yields the next edge in matching order. A matched paper leaves the
   heap with all its edges, which the full order would skip anyway; an
   edge whose reviewer is full is dropped (a reviewer's capacity only
   falls), and its paper's next best edge moves to the front. The
   edges taken are exactly those a full sort would take, in the same
   order, at a fraction of the comparisons. *)
let greedy_matching ?deadline ~pair_gain ~gm ~capacity inst ~current
    (s : Gain_matrix.stage_scratch) =
  let rows = Instance.n_papers inst in
  let n_r = Instance.n_reviewers inst in
  let value = s.value and reviewer = s.reviewer in
  let start = s.start and stop = s.stop and heap = s.heap in
  let chosen = s.chosen and left = s.left in
  Array.fill chosen 0 rows (-1);
  Array.blit capacity 0 left 0 n_r;
  (* Whether slot [a] of paper [p] precedes slot [b] of paper [q]. *)
  let before p a q b =
    let x = value.(a) and y = value.(b) in
    if x > y then true
    else if x < y then false
    else
      (* Equal numbers, or a NaN on either side. *)
      let x_nan = Float.is_nan x and y_nan = Float.is_nan y in
      if Bool.equal x_nan y_nan then
        p < q || (p = q && reviewer.(a) < reviewer.(b))
      else y_nan
  in
  let swap a b =
    let v = value.(a) and r = reviewer.(a) in
    value.(a) <- value.(b);
    reviewer.(a) <- reviewer.(b);
    value.(b) <- v;
    reviewer.(b) <- r
  in
  (* Move paper [p]'s best live edge to the front of its slots. *)
  let front p =
    let best = ref start.(p) in
    for a = start.(p) + 1 to stop.(p) - 1 do
      if before p a p !best then best := a
    done;
    if !best <> start.(p) then swap !best start.(p)
  in
  let size = ref 0 in
  let less p q = before p start.(p) q start.(q) in
  let rec sift i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let c = if l + 1 < !size && less heap.(l + 1) heap.(l) then l + 1 else l in
      if less heap.(c) heap.(i) then begin
        let tmp = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- tmp;
        sift c
      end
    end
  in
  let pop () =
    decr size;
    heap.(0) <- heap.(!size);
    sift 0
  in
  for p = 0 to rows - 1 do
    stop.(p) <- start.(p + 1);
    if stop.(p) > start.(p) then begin
      front p;
      heap.(!size) <- p;
      incr size
    end
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift i
  done;
  let unmatched = ref rows in
  while !unmatched > 0 && !size > 0 do
    let p = heap.(0) in
    let a = start.(p) in
    let r = reviewer.(a) in
    if left.(r) > 0 then begin
      chosen.(p) <- r;
      left.(r) <- left.(r) - 1;
      decr unmatched;
      pop ()
    end
    else begin
      let last = stop.(p) - 1 in
      stop.(p) <- last;
      if last = a then pop ()
      else begin
        swap a last;
        front p;
        sift 0
      end
    end
  done;
  if !unmatched > 0 then
    (* Completion: candidates could not place these papers (narrow
       support, or their candidates' capacity went to earlier papers).
       One full scan per leftover paper, exactly what {!Repair} would
       do later but stage-capacity-aware. *)
    for p = 0 to rows - 1 do
      if chosen.(p) < 0 then begin
        Timer.check_opt deadline;
        let members = Assignment.group current p in
        let best = ref (-1) and best_value = ref neg_infinity in
        for r = 0 to n_r - 1 do
          if
            left.(r) > 0
            && (not (List.mem r members))
            && not (Instance.forbidden inst ~paper:p ~reviewer:r)
          then begin
            let value =
              pair_value pair_gain ~paper:p ~reviewer:r
                (Gain_matrix.gain gm ~paper:p ~reviewer:r)
            in
            if value > !best_value then begin
              best_value := value;
              best := r
            end
          end
        done;
        if !best < 0 then failwith "Stage.solve: infeasible stage";
        chosen.(p) <- !best;
        left.(!best) <- left.(!best) - 1
      end
    done;
  chosen

let solve_pruned ~pair_gain ~gm ?deadline inst ~current ~capacity =
  let rows = Instance.n_papers inst in
  let s = stage_buffers gm inst in
  collect_edges pair_gain gm ?deadline inst ~s ~current ~capacity;
  let units =
    (* Upper bound on compact columns without building them. *)
    Array.fold_left (fun acc c -> acc + min c rows) 0 capacity
  in
  let exact = rows * rows <= hungarian_work_gate / max 1 (min units s.len) in
  let from_hungarian =
    if exact then compact_hungarian ?deadline ~rows ~capacity s else None
  in
  match from_hungarian with
  | Some chosen -> chosen
  | None -> greedy_matching ?deadline ~pair_gain ~gm ~capacity inst ~current s

(* Dense backend: one column per remaining capacity unit ([owner] maps
   a column back to its reviewer), Hungarian over every paper. *)
let solve_dense ~pair_gain ~gm ?deadline inst ~current ~capacity =
  let n_r = Instance.n_reviewers inst in
  let owner = ref [] in
  for r = n_r - 1 downto 0 do
    if capacity.(r) < 0 then invalid_arg "Stage.solve: negative capacity";
    for _ = 1 to capacity.(r) do
      owner := r :: !owner
    done
  done;
  let owner = Array.of_list !owner in
  if Array.length owner < Instance.n_papers inst then
    failwith "Stage.solve: infeasible stage";
  let s = stage_buffers gm inst in
  let raw = Array.make n_r 0. in
  let score =
    Array.init (Instance.n_papers inst) (fun p ->
        Timer.check_opt deadline;
        fill_row pair_gain inst ~gm ~capacity ~s ~raw ~current p;
        (* Replicated columns of a reviewer share one value. *)
        Array.map (fun r -> raw.(r)) owner)
  in
  match Lap.Hungarian.maximize ?deadline score with
  | cols_of_rows, _ -> Array.map (fun c -> owner.(c)) cols_of_rows
  | exception Failure _ -> failwith "Stage.solve: infeasible stage"

let solve ?pair_gain ~gains:gm ?deadline inst ~current ~capacity =
  if Array.length capacity <> Instance.n_reviewers inst then
    invalid_arg "Stage.solve: capacity length mismatch";
  let backend = if Gain_matrix.pruned gm then solve_pruned else solve_dense in
  let chosen = backend ~pair_gain ~gm ?deadline inst ~current ~capacity in
  List.init (Instance.n_papers inst) (fun p -> (p, chosen.(p)))
