module Timer = Wgrap_util.Timer

let default_gain ~paper:_ ~reviewer:_ ~coverage_gain = coverage_gain

(* Dense row builder: paper [p]'s marginal gains from the shared gain
   matrix, masked — exhausted capacity, current group members (a [bool
   array] mask, set and cleared around the row instead of a per-cell
   list scan) and COI pairs become [forbidden] — and passed through
   [pair_gain], into [raw]. Masking inside the row callback passes each
   gain on already boxed, so reading the row costs no extra float
   allocation. *)
let fill_row pair_gain inst ~gm ~capacity ~mask ~raw ~current p =
  let members = Assignment.group current p in
  List.iter (fun r -> mask.(r) <- true) members;
  Gain_matrix.iter_row gm ~paper:p (fun ~reviewer:r ~gain ->
      raw.(r) <-
        (if capacity.(r) = 0 || mask.(r) || Instance.forbidden inst ~paper:p ~reviewer:r
         then Lap.Hungarian.forbidden
         else pair_gain ~paper:p ~reviewer:r ~coverage_gain:gain));
  List.iter (fun r -> mask.(r) <- false) members

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
   [Failure] only when no reviewer at all has capacity left. *)

type edge = { value : float; paper : int; reviewer : int }

(* Deterministic matching preference: higher value first, then the
   earlier paper, then the lower reviewer id. *)
let edge_compare a b =
  match Float.compare b.value a.value with
  | 0 -> (
      match Int.compare a.paper b.paper with
      | 0 -> Int.compare a.reviewer b.reviewer
      | c -> c)
  | c -> c

(* A compact Hungarian run costs ~rows^2 * cols; keep it under the gate
   so a pruned stage is never slower than its own edge collection. *)
let hungarian_work_gate = 100_000_000

let collect_edges pair_gain gm ?deadline inst ~current ~capacity =
  let mask = Array.make (Instance.n_reviewers inst) false in
  let edges = ref [] in
  for p = 0 to Instance.n_papers inst - 1 do
    Timer.check_opt deadline;
    let members = Assignment.group current p in
    List.iter (fun r -> mask.(r) <- true) members;
    Gain_matrix.iter_row gm ~paper:p (fun ~reviewer:r ~gain ->
        if
          capacity.(r) > 0 && (not mask.(r))
          && not (Instance.forbidden inst ~paper:p ~reviewer:r)
        then
          edges :=
            { value = pair_gain ~paper:p ~reviewer:r ~coverage_gain:gain;
              paper = p;
              reviewer = r }
            :: !edges);
    List.iter (fun r -> mask.(r) <- false) members
  done;
  Array.of_list !edges

(* Exact assignment over the candidate edges: Hungarian on a matrix
   whose columns are the capacity units of just the reviewers any edge
   touches. Returns [None] when the edge set cannot cover every paper
   (the greedy path then tries its full-scan completion). *)
let compact_hungarian ?deadline ~rows ~capacity edges =
  let module IM = Map.Make (Int) in
  let touched =
    Array.fold_left (fun m e -> IM.add e.reviewer () m) IM.empty edges
  in
  let owner = ref [] in
  IM.iter
    (fun r () ->
      for _ = 1 to min capacity.(r) rows do
        owner := r :: !owner
      done)
    touched;
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
    Array.iter
      (fun e ->
        let c0 = Hashtbl.find col_of e.reviewer in
        let c = ref c0 in
        while !c < cols && owner.(!c) = e.reviewer do
          score.(e.paper).(!c) <- e.value;
          incr c
        done)
      edges;
    match Lap.Hungarian.maximize ?deadline score with
    | cols_of_rows, _ -> Some (Array.map (fun c -> owner.(c)) cols_of_rows)
    | exception Failure _ -> None
  end

(* Greedy descending-gain matching over the candidate edges, then a
   full scan for any paper left over. *)
let greedy_matching ?deadline ~pair_gain ~gm ~capacity inst ~current edges =
  let rows = Instance.n_papers inst in
  let n_r = Instance.n_reviewers inst in
  Array.sort edge_compare edges;
  let chosen = Array.make rows (-1) in
  let left = Array.copy capacity in
  let unmatched = ref rows in
  Array.iter
    (fun e ->
      if !unmatched > 0 && chosen.(e.paper) < 0 && left.(e.reviewer) > 0 then begin
        chosen.(e.paper) <- e.reviewer;
        left.(e.reviewer) <- left.(e.reviewer) - 1;
        decr unmatched
      end)
    edges;
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
              pair_gain ~paper:p ~reviewer:r
                ~coverage_gain:(Gain_matrix.gain gm ~paper:p ~reviewer:r)
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
  let edges = collect_edges pair_gain gm ?deadline inst ~current ~capacity in
  let units =
    (* Upper bound on compact columns without building them. *)
    Array.fold_left (fun acc c -> acc + min c rows) 0 capacity
  in
  let exact =
    rows * rows <= hungarian_work_gate / max 1 (min units (Array.length edges))
  in
  let from_hungarian =
    if exact then compact_hungarian ?deadline ~rows ~capacity edges else None
  in
  match from_hungarian with
  | Some chosen -> chosen
  | None -> greedy_matching ?deadline ~pair_gain ~gm ~capacity inst ~current edges

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
  let mask = Array.make n_r false in
  let raw = Array.make n_r 0. in
  let score =
    Array.init (Instance.n_papers inst) (fun p ->
        Timer.check_opt deadline;
        fill_row pair_gain inst ~gm ~capacity ~mask ~raw ~current p;
        (* Replicated columns of a reviewer share one value. *)
        Array.map (fun r -> raw.(r)) owner)
  in
  match Lap.Hungarian.maximize ?deadline score with
  | cols_of_rows, _ -> Array.map (fun c -> owner.(c)) cols_of_rows
  | exception Failure _ -> failwith "Stage.solve: infeasible stage"

let solve ?(pair_gain = default_gain) ~gains:gm ?deadline inst ~current
    ~capacity =
  if Array.length capacity <> Instance.n_reviewers inst then
    invalid_arg "Stage.solve: capacity length mismatch";
  let backend = if Gain_matrix.pruned gm then solve_pruned else solve_dense in
  let chosen = backend ~pair_gain ~gm ?deadline inst ~current ~capacity in
  Array.to_list (Array.mapi (fun p r -> (p, r)) chosen)
