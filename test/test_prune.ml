(* Candidate-pruned solving (PR 7): the inverted topic index against
   brute force, pruned-cell parity with the dense matrix, validity of
   pruned solves at every k, dense bit-identity at k >= n_r, and
   jobs=1 vs jobs=N determinism of the pruned paths.

   [WGRAP_TEST_JOBS] overrides the parallel job count (default 4),
   matching the test_par harness. *)

module Rng = Wgrap_util.Rng
module Pool = Wgrap_par.Pool
open Wgrap

let test_jobs =
  match Sys.getenv_opt "WGRAP_TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some j when j >= 1 -> j | _ -> 4)
  | None -> 4

let par_pool = Pool.create ~jobs:test_jobs

(* Sparse-ish vectors so candidate lists are genuinely shorter than the
   reviewer pool: every vector touches [nnz] of [dim] topics. *)
let sparse_vec rng ~dim ~nnz =
  let v = Array.make dim 0. in
  Array.iter
    (fun t -> v.(t) <- 0.05 +. Rng.uniform rng)
    (Rng.sample_without_replacement rng (min nnz dim) dim);
  Topic_vector.normalize v

let random_coi rng ~n_p ~n_r =
  List.concat
    (List.init n_p (fun p ->
         if Rng.uniform rng < 0.4 then [ (p, Rng.int rng n_r) ] else []))

let random_instance_vecs ?scoring ?(dim = 12) ?(nnz = 4) ?coi rng ~n_p ~n_r ~dp
    =
  let papers = Array.init n_p (fun _ -> sparse_vec rng ~dim ~nnz) in
  let reviewers = Array.init n_r (fun _ -> sparse_vec rng ~dim ~nnz) in
  let dr = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp in
  ( Instance.create_exn ?scoring ?coi ~papers ~reviewers ~delta_p:dp
      ~delta_r:dr (),
    papers,
    reviewers )

let random_instance ?scoring ?dim ?nnz ?coi rng ~n_p ~n_r ~dp =
  let inst, _, _ =
    random_instance_vecs ?scoring ?dim ?nnz ?coi rng ~n_p ~n_r ~dp
  in
  inst

let supports_overlap a b =
  let n = Array.length a in
  let rec go t = t < n && ((a.(t) > 0. && b.(t) > 0.) || go (t + 1)) in
  go 0

let seeds = QCheck.(int_range 0 1_000_000)

(* ------------------------------------------------ index vs brute force *)

(* Exact top-k under (score desc, id asc), the order the index's bounded
   heap maintains; candidates come back ascending by id. [eligible]
   models the traversal's reach: the index only ever offers reviewers
   its posting walk touches (support overlap; for cR also the mass
   seeds), so brute force must restrict itself the same way. *)
let brute_top_k inst ~eligible ~k ~paper =
  let n_r = Instance.n_reviewers inst in
  let scored = ref [] in
  for r = n_r - 1 downto 0 do
    if eligible r && not (Instance.forbidden inst ~paper ~reviewer:r) then
      scored := (Instance.pair_score inst ~paper ~reviewer:r, r) :: !scored
  done;
  let ranked =
    List.sort
      (fun (sa, ra) (sb, rb) ->
        match Float.compare sb sa with 0 -> Int.compare ra rb | c -> c)
      !scored
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  List.sort Int.compare (List.map snd (take k ranked))

(* Exact for the three kinds whose score vanishes off the paper support:
   the index considers exactly the reviewers whose support overlaps the
   paper's (zero-score overlapping reviewers included — under cP a
   reviewer can touch every paper topic yet contribute 0). *)
let index_matches_brute scoring =
  let name =
    Printf.sprintf "top_k = brute force (%s)" (Scoring.name scoring)
  in
  QCheck.Test.make ~name ~count:80 seeds (fun seed ->
      let rng = Rng.create seed in
      let n_r = 6 + Rng.int rng 20 in
      let n_p = 3 + Rng.int rng 6 in
      let coi = if Rng.bool rng then Some (random_coi rng ~n_p ~n_r) else None in
      let inst, papers, reviewers =
        random_instance_vecs ~scoring ?coi rng ~n_p ~n_r ~dp:2
      in
      let k = 1 + Rng.int rng (n_r + 2) in
      for p = 0 to n_p - 1 do
        let got = Array.to_list (Instance.candidates inst ~k ~paper:p) in
        let eligible r = supports_overlap papers.(p) reviewers.(r) in
        let want = brute_top_k inst ~eligible ~k ~paper:p in
        if got <> want then
          QCheck.Test.fail_reportf
            "paper %d k=%d: index [%s] brute [%s]" p k
            (String.concat ";" (List.map string_of_int got))
            (String.concat ";" (List.map string_of_int want))
      done;
      true)

(* Reviewer_coverage scores off-support mass, so retrieval is seeded
   with the [4k + 16] heaviest reviewers. When the pool fits inside the
   seed set every reviewer is offered and the selection is exact top-k;
   that is the regime this test pins (the wider-pool case is documented
   as heuristic, with the dense path as oracle). *)
let index_cr_exact_when_seeded =
  QCheck.Test.make ~name:"top_k exact for cR inside the seed width"
    ~count:80 seeds (fun seed ->
      let rng = Rng.create seed in
      let n_r = 6 + Rng.int rng 20 in
      let n_p = 3 + Rng.int rng 6 in
      let inst =
        random_instance ~scoring:Scoring.Reviewer_coverage rng ~n_p ~n_r ~dp:2
      in
      (* k chosen so 4k + 16 >= n_r: the whole pool is seeded. *)
      let k_lo = max 1 ((n_r - 16 + 3) / 4) in
      let k = k_lo + Rng.int rng (n_r - k_lo + 1) in
      for p = 0 to n_p - 1 do
        let got = Array.to_list (Instance.candidates inst ~k ~paper:p) in
        let want = brute_top_k inst ~eligible:(fun _ -> true) ~k ~paper:p in
        if got <> want then
          QCheck.Test.fail_reportf
            "paper %d k=%d: index [%s] brute [%s]" p k
            (String.concat ";" (List.map string_of_int got))
            (String.concat ";" (List.map string_of_int want))
      done;
      true)

(* One scratch serves every query in a task: retrievals interleaved
   across two instances of different pool sizes (the scratch grows
   mid-sequence, then serves the smaller pool again) and across all
   four kinds return exactly the lists a fresh scratch returns, and the
   Eq. 9 sweeps interleaved with them visit each hit reviewer with its
   exact pair score, bit for bit, and miss only reviewers that score 0.
   A walk that left one accumulator or seen-flag behind fails here. *)
let shared_scratch_matches_fresh =
  QCheck.Test.make ~name:"one scratch across instances = fresh scratch"
    ~count:40 seeds (fun seed ->
      let rng = Rng.create seed in
      let scratch = Candidate_index.scratch () in
      let make n_r =
        let n_p = 4 + Rng.int rng 5 in
        let coi = random_coi rng ~n_p ~n_r in
        random_instance ~dim:16 ~coi rng ~n_p ~n_r ~dp:2
      in
      let small = make (8 + Rng.int rng 8) and large = make (30 + Rng.int rng 20) in
      let bits = Int64.bits_of_float in
      let query inst ~k ~paper =
        let got = Instance.candidates_with inst scratch ~k ~paper in
        let fresh = Instance.candidates inst ~k ~paper in
        if got <> fresh then
          QCheck.Test.fail_reportf "n_r=%d %s k=%d paper %d: shared [%s] fresh [%s]"
            (Instance.n_reviewers inst)
            (Scoring.name inst.Instance.scoring)
            k paper
            (String.concat ";" (Array.to_list (Array.map string_of_int got)))
            (String.concat ";" (Array.to_list (Array.map string_of_int fresh)))
      in
      let sweep inst ~paper =
        let visited = Array.make (Instance.n_reviewers inst) false in
        Candidate_index.iter_scores inst.Instance.cindex scratch
          ~scoring:inst.Instance.scoring (Instance.paper_support inst paper)
          (fun r c ->
            if visited.(r) then QCheck.Test.fail_reportf "reviewer %d visited twice" r;
            visited.(r) <- true;
            if bits c <> bits (Instance.pair_score inst ~paper ~reviewer:r) then
              QCheck.Test.fail_reportf "paper %d reviewer %d: sweep %h, kernel %h"
                paper r c (Instance.pair_score inst ~paper ~reviewer:r));
        Array.iteri
          (fun r v ->
            if (not v) && bits (Instance.pair_score inst ~paper ~reviewer:r) <> bits 0.
            then QCheck.Test.fail_reportf "paper %d: sweep missed reviewer %d" paper r)
          visited
      in
      for round = 0 to 5 do
        List.iter
          (fun kind ->
            List.iter
              (fun base ->
                let inst = Instance.with_scoring base kind in
                let paper = (round + Rng.int rng 3) mod Instance.n_papers inst in
                query inst ~k:(1 + Rng.int rng 6) ~paper;
                match kind with
                | Scoring.Reviewer_coverage -> ()
                | _ -> sweep inst ~paper)
              (if round mod 2 = 0 then [ small; large ] else [ large; small ]))
          Scoring.all
      done;
      true)

(* -------------------------------------------- pruned matrix invariants *)

let pruned_cells_match_dense =
  QCheck.Test.make ~name:"pruned gain cells bit-identical to dense"
    ~count:60 seeds (fun seed ->
      let rng = Rng.create seed in
      let n_r = 8 + Rng.int rng 12 in
      let n_p = 4 + Rng.int rng 8 in
      let inst = random_instance rng ~n_p ~n_r ~dp:2 in
      let k = 2 + Rng.int rng 4 in
      let dense = Gain_matrix.create inst in
      let pruned = Gain_matrix.create ~candidates:k inst in
      if not (Gain_matrix.pruned pruned) then
        QCheck.Test.fail_report "k > 0 below n_r must select pruned backing";
      (* arbitrary shared group state *)
      (match Sdga.solve inst with
      | a ->
          for p = 0 to n_p - 1 do
            let g = Assignment.group a p in
            Gain_matrix.set_group dense ~paper:p g;
            Gain_matrix.set_group pruned ~paper:p g
          done
      | exception Failure _ -> ());
      let row = Array.make n_r nan in
      for p = 0 to n_p - 1 do
        Gain_matrix.iter_row dense ~paper:p (fun ~reviewer ~gain ->
            row.(reviewer) <- gain);
        Gain_matrix.iter_row pruned ~paper:p (fun ~reviewer ~gain ->
            if not (Float.equal gain row.(reviewer)) then
              QCheck.Test.fail_reportf
                "cell (%d, %d): pruned %.17g dense %.17g" p reviewer gain
                row.(reviewer))
      done;
      (* Eq. 9 sums must not depend on the row width *)
      if
        Gain_matrix.column_denominators pruned
        <> Gain_matrix.column_denominators dense
      then QCheck.Test.fail_report "streamed column sums differ from dense";
      (* fold_row must visit exactly iter_row's cells, in order, on
         both backings *)
      for p = 0 to n_p - 1 do
        List.iter
          (fun gm ->
            let via_iter = ref [] in
            Gain_matrix.iter_row gm ~paper:p (fun ~reviewer ~gain ->
                via_iter := (reviewer, gain) :: !via_iter);
            let via_fold =
              Gain_matrix.fold_row gm ~paper:p ~init:[]
                (fun acc ~reviewer ~gain -> (reviewer, gain) :: acc)
            in
            if via_fold <> !via_iter then
              QCheck.Test.fail_report "fold_row disagrees with iter_row")
          [ pruned; dense ]
      done;
      true)

(* ------------------------------------------------ validity at every k *)

let pruned_solves_valid =
  QCheck.Test.make ~name:"pruned SDGA/SRA/Greedy valid at every k" ~count:40
    seeds (fun seed ->
      let rng = Rng.create seed in
      let n_r = 8 + Rng.int rng 10 in
      let n_p = 4 + Rng.int rng 8 in
      let coi = if Rng.bool rng then Some (random_coi rng ~n_p ~n_r) else None in
      let inst = random_instance ?coi rng ~n_p ~n_r ~dp:2 in
      (match Sdga.solve inst with
      | exception Failure _ -> () (* infeasible draw under dense too: skip *)
      | _ ->
          List.iter
            (fun k ->
              let ctx = Ctx.make ~seed:(seed + 3) ~candidates:k () in
              let check name a =
                match Assignment.validate inst a with
                | Ok () -> ()
                | Error e ->
                    QCheck.Test.fail_reportf "%s invalid at k=%d: %s" name k e
              in
              (match Sdga.solve ~ctx inst with
              | a ->
                  check "sdga" a;
                  (match Sra.refine ~params:{ Sra.default_params with
                                              Sra.max_rounds = 3 }
                           ~ctx inst a
                   with
                  | refined -> check "sra" refined
                  | exception Failure _ -> ())
              | exception Failure _ ->
                  (* pruned stage infeasible at tiny k is legal *)
                  ());
              match Greedy.solve ~ctx inst with
              | a -> check "greedy" a
              | exception Failure _ -> ())
            [ 1; 2; 4; 8; n_r ]);
      true)

(* -------------------------------------- dense bit-identity at k >= n_r *)

let dense_identity_at_large_k =
  QCheck.Test.make ~name:"k >= n_r bit-identical to dense (all solvers)"
    ~count:40 seeds (fun seed ->
      let rng = Rng.create seed in
      let n_r = 6 + Rng.int rng 8 in
      let n_p = 4 + Rng.int rng 8 in
      let coi = if Rng.bool rng then Some (random_coi rng ~n_p ~n_r) else None in
      let inst = random_instance ?coi rng ~n_p ~n_r ~dp:2 in
      let dense_ctx () = Ctx.make ~seed:7 () in
      let big_ctx () = Ctx.make ~seed:7 ~candidates:(n_r + Rng.int rng 3) () in
      let same name a b =
        match (a, b) with
        | Some a, Some b ->
            if not (Assignment.equal a b) then
              QCheck.Test.fail_reportf "%s differs at k >= n_r" name
        | None, None -> ()
        | _ -> QCheck.Test.fail_reportf "%s feasibility differs" name
      in
      let attempt f = match f () with a -> Some a | exception Failure _ -> None in
      let sd = attempt (fun () -> Sdga.solve ~ctx:(dense_ctx ()) inst) in
      let sk = attempt (fun () -> Sdga.solve ~ctx:(big_ctx ()) inst) in
      same "sdga" sd sk;
      (match (sd, sk) with
      | Some a, Some b ->
          let refine ctx start =
            attempt (fun () ->
                Sra.refine
                  ~params:{ Sra.default_params with Sra.max_rounds = 3 }
                  ~ctx inst start)
          in
          same "sra" (refine (dense_ctx ()) a) (refine (big_ctx ()) b)
      | _ -> ());
      same "greedy"
        (attempt (fun () -> Greedy.solve ~ctx:(dense_ctx ()) inst))
        (attempt (fun () -> Greedy.solve ~ctx:(big_ctx ()) inst));
      let cra ctx =
        match Solver.cra ~ctx inst with
        | Solver.Complete a | Solver.Degraded (a, _) -> Some a
        | Solver.Infeasible _ -> None
      in
      same "cra" (cra (dense_ctx ())) (cra (big_ctx ()));
      true)

(* ------------------------------------------ pruned coverage vs dense *)

(* Pruning quality on a fixed workload where dense and pruned SDGA both
   complete exactly: 80 x 160, delta_p = 3, T = 250 at 20% sparsity,
   seed 2015. At k = 16 and k = 32 the pruned coverage must stay
   >= 0.99x dense. Reviewers are drawn before papers. *)
let test_pruned_coverage_ratio () =
  let rng = Rng.create 2015 in
  let reviewers = Array.init 160 (fun _ -> sparse_vec rng ~dim:250 ~nnz:50) in
  let papers = Array.init 80 (fun _ -> sparse_vec rng ~dim:250 ~nnz:50) in
  let inst =
    Instance.create_exn ~papers ~reviewers ~delta_p:3
      ~delta_r:(Instance.min_workload ~papers:80 ~reviewers:160 ~delta_p:3)
      ()
  in
  let coverage ctx = Assignment.coverage inst (Sdga.solve ~ctx inst) in
  let dense = coverage (Ctx.make ~seed:2015 ()) in
  List.iter
    (fun k ->
      let ratio = coverage (Ctx.make ~seed:2015 ~candidates:k ()) /. dense in
      Printf.printf "k=%d: pruned coverage ratio %.6f\n" k ratio;
      if ratio < 0.99 then
        Alcotest.failf "k=%d: pruned coverage ratio %.6f < 0.99 x dense" k
          ratio)
    [ 16; 32 ]

(* ------------------------------------------------- jobs determinism *)

let pruned_jobs_determinism =
  QCheck.Test.make ~name:"pruned solvers jobs=1 = jobs=N" ~count:40 seeds
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 8 + Rng.int rng 10 in
      let n_p = 4 + Rng.int rng 8 in
      let inst = random_instance rng ~n_p ~n_r ~dp:2 in
      let k = 2 + Rng.int rng 6 in
      let solve pool =
        let ctx () = Ctx.make ~seed:(seed + 11) ~candidates:k ~pool () in
        match Sdga.solve ~ctx:(ctx ()) inst with
        | a -> Some (a, Solver.value (Solver.cra ~ctx:(ctx ()) inst))
        | exception Failure _ -> None
      in
      (match (solve Pool.sequential, solve par_pool) with
      | Some (a1, r1), Some (a2, r2) ->
          if not (Assignment.equal a1 a2) then
            QCheck.Test.fail_reportf "pruned SDGA differs at jobs=%d" test_jobs;
          if not (Option.equal Assignment.equal r1 r2) then
            QCheck.Test.fail_reportf
              "pruned Solver.cra differs at jobs=%d" test_jobs
      | None, None -> ()
      | _ -> QCheck.Test.fail_report "pruned feasibility differs across jobs");
      (* greedy seeds its heap from pool-rebuilt rows; must not depend
         on the job count either *)
      let greedy pool =
        match
          Greedy.solve ~ctx:(Ctx.make ~candidates:k ~pool ()) inst
        with
        | a -> Some a
        | exception Failure _ -> None
      in
      (match (greedy Pool.sequential, greedy par_pool) with
      | Some a1, Some a2 ->
          if not (Assignment.equal a1 a2) then
            QCheck.Test.fail_reportf "pruned Greedy differs at jobs=%d" test_jobs
      | None, None -> ()
      | _ -> QCheck.Test.fail_report "greedy feasibility differs across jobs");
      true)

(* ------------------------------------- pruned stage vs boxed oracle *)

(* The pruned stage as it was before its edges moved into the matrix's
   struct-of-arrays scratch: boxed edge records, consed in collection
   order, sorted with [edge_compare], matched greedily past the work
   gate and by a compact Hungarian below it. [Stage.solve] on a pruned
   matrix must return exactly this oracle's pairs. *)
module Boxed_stage = struct
  type edge = { value : float; paper : int; reviewer : int }

  let edge_compare a b =
    match Float.compare b.value a.value with
    | 0 -> (
        match Int.compare a.paper b.paper with
        | 0 -> Int.compare a.reviewer b.reviewer
        | c -> c)
    | c -> c

  let hungarian_work_gate = 100_000_000

  let value pair_gain ~paper ~reviewer g =
    match pair_gain with None -> g | Some f -> f ~paper ~reviewer ~coverage_gain:g

  let collect pair_gain gm inst ~current ~capacity =
    let edges = ref [] in
    for p = 0 to Instance.n_papers inst - 1 do
      let members = Assignment.group current p in
      Gain_matrix.iter_row gm ~paper:p (fun ~reviewer:r ~gain ->
          if
            capacity.(r) > 0 && (not (List.mem r members))
            && not (Instance.forbidden inst ~paper:p ~reviewer:r)
          then
            edges :=
              { value = value pair_gain ~paper:p ~reviewer:r gain; paper = p; reviewer = r }
              :: !edges)
    done;
    Array.of_list !edges

  let compact_hungarian ~rows ~capacity edges =
    let touched =
      List.sort_uniq Int.compare (Array.to_list (Array.map (fun e -> e.reviewer) edges))
    in
    let owner =
      Array.of_list
        (List.concat_map (fun r -> List.init (min capacity.(r) rows) (fun _ -> r)) touched)
    in
    let cols = Array.length owner in
    if cols < rows then None
    else begin
      let score = Array.init rows (fun _ -> Array.make cols Lap.Hungarian.forbidden) in
      Array.iter
        (fun e ->
          Array.iteri (fun c r -> if r = e.reviewer then score.(e.paper).(c) <- e.value) owner)
        edges;
      match Lap.Hungarian.maximize score with
      | cols_of_rows, _ -> Some (Array.map (fun c -> owner.(c)) cols_of_rows)
      | exception Failure _ -> None
    end

  let greedy pair_gain gm inst ~current ~capacity edges =
    let rows = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
    Array.sort edge_compare edges;
    let chosen = Array.make rows (-1) and left = Array.copy capacity in
    Array.iter
      (fun e ->
        if chosen.(e.paper) < 0 && left.(e.reviewer) > 0 then begin
          chosen.(e.paper) <- e.reviewer;
          left.(e.reviewer) <- left.(e.reviewer) - 1
        end)
      edges;
    for p = 0 to rows - 1 do
      if chosen.(p) < 0 then begin
        let members = Assignment.group current p in
        let best = ref (-1) and best_value = ref neg_infinity in
        for r = 0 to n_r - 1 do
          if
            left.(r) > 0 && (not (List.mem r members))
            && not (Instance.forbidden inst ~paper:p ~reviewer:r)
          then begin
            let v = value pair_gain ~paper:p ~reviewer:r (Gain_matrix.gain gm ~paper:p ~reviewer:r) in
            if v > !best_value then begin
              best_value := v;
              best := r
            end
          end
        done;
        if !best < 0 then failwith "infeasible";
        chosen.(p) <- !best;
        left.(!best) <- left.(!best) - 1
      end
    done;
    chosen

  (* The pairs, whether the stage fell below the work gate, and whether
     the compact Hungarian (rather than greedy) produced them. *)
  let solve ?pair_gain gm inst ~current ~capacity =
    let rows = Instance.n_papers inst in
    let edges = collect pair_gain gm inst ~current ~capacity in
    let units = Array.fold_left (fun acc c -> acc + min c rows) 0 capacity in
    let exact =
      rows * rows <= hungarian_work_gate / max 1 (min units (Array.length edges))
    in
    let chosen, hungarian =
      match if exact then compact_hungarian ~rows ~capacity edges else None with
      | Some chosen -> (chosen, true)
      | None -> (greedy pair_gain gm inst ~current ~capacity edges, false)
    in
    (List.init rows (fun p -> (p, chosen.(p))), exact, hungarian)
end

(* Instances built for ties and leftovers: weights on a coarse grid and
   duplicated reviewers (equal gains), a pair transform that rounds
   gains (more ties), zero-capacity reviewers and narrow candidate
   lists (the full-scan completion). Small instances solve below the
   work gate, 300-paper ones above it. *)
let stage_matches_boxed ~name ~count ~n_p ~n_r =
  QCheck.Test.make ~name ~count seeds (fun seed ->
      let rng = Rng.create seed in
      let dim = 16 in
      let coarse () =
        Array.init dim (fun _ ->
            if Rng.uniform rng < 0.3 then float_of_int (1 + Rng.int rng 3) /. 4. else 0.)
      in
      let papers = Array.init n_p (fun _ -> coarse ()) in
      let distinct = Array.init ((n_r / 3) + 1) (fun _ -> coarse ()) in
      let reviewers = Array.init n_r (fun r -> distinct.(r mod Array.length distinct)) in
      let kind = List.nth Scoring.all (Rng.int rng 4) in
      let coi = random_coi rng ~n_p ~n_r in
      let dp = 2 in
      let inst =
        Instance.create_exn ~scoring:kind ~coi ~papers ~reviewers ~delta_p:dp
          ~delta_r:(Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:dp + 1)
          ()
      in
      let k = 1 + Rng.int rng 4 in
      let gm = Gain_matrix.create ~candidates:k inst in
      let oracle_gm = Gain_matrix.create ~candidates:k inst in
      (* One reviewer already in each group, as after SDGA's first stage. *)
      let current = Assignment.empty ~n_papers:n_p in
      for p = 0 to n_p - 1 do
        let r = Rng.int rng n_r in
        if not (Instance.forbidden inst ~paper:p ~reviewer:r) then begin
          Assignment.add current ~paper:p ~reviewer:r;
          Gain_matrix.add gm ~paper:p ~reviewer:r;
          Gain_matrix.add oracle_gm ~paper:p ~reviewer:r
        end
      done;
      let zero_share = Rng.uniform rng *. 0.6 in
      let capacity =
        Array.init n_r (fun _ -> if Rng.uniform rng < zero_share then 0 else 1 + Rng.int rng 2)
      in
      let pair_gain =
        if Rng.bool rng then None
        else
          Some
            (fun ~paper:_ ~reviewer:_ ~coverage_gain ->
              Float.round (coverage_gain *. 20.) /. 20.)
      in
      let got =
        match Stage.solve ?pair_gain ~gains:gm inst ~current ~capacity with
        | pairs -> Some pairs
        | exception Failure _ -> None
      in
      let want =
        match Boxed_stage.solve ?pair_gain oracle_gm inst ~current ~capacity with
        | pairs, _, _ -> Some pairs
        | exception Failure _ -> None
      in
      (match (got, want) with
      | Some g, Some w when g = w -> ()
      | None, None -> ()
      | _ ->
          QCheck.Test.fail_reportf "seed %d %s k=%d: Stage.solve differs from the boxed oracle"
            seed (Scoring.name kind) k);
      true)

(* Shapes that reach every path of the pruned stage: the compact
   Hungarian below the work gate, greedy above it, and the full-scan
   completion both when the Hungarian finds the edges cannot cover
   every paper and above the gate. Checked here so the oracle
   properties cannot pass vacuously. *)
let test_stage_oracle_paths () =
  let paths = Hashtbl.create 4 in
  List.iter
    (fun (n_p, n_r, k, zero_share) ->
      let rng = Rng.create (n_p + k) in
      let inst = random_instance rng ~n_p ~n_r ~dp:2 in
      let gm = Gain_matrix.create ~candidates:k inst in
      let capacity =
        Array.init n_r (fun r -> if r mod 10 < zero_share then 0 else 2)
      in
      let current = Assignment.empty ~n_papers:n_p in
      let pairs, exact, hungarian = Boxed_stage.solve gm inst ~current ~capacity in
      Alcotest.(check bool) "oracle = Stage.solve" true
        (pairs = Stage.solve ~gains:(Gain_matrix.create ~candidates:k inst) inst ~current ~capacity);
      let completed =
        List.exists
          (fun (p, r) -> not (Array.mem r (Gain_matrix.candidates gm ~paper:p)))
          pairs
      in
      Hashtbl.replace paths (exact, hungarian, completed) ())
    [ (12, 30, 3, 0); (300, 900, 4, 0); (300, 900, 1, 6); (1200, 2000, 1, 5) ];
  List.iter
    (fun (label, key) -> Alcotest.(check bool) label true (Hashtbl.mem paths key))
    [
      ("compact Hungarian", (true, true, false));
      ("greedy above the gate", (false, false, false));
      ("completion below the gate", (true, false, true));
      ("completion above the gate", (false, false, true));
    ]

(* An SRA round on a pruned matrix allocates a few words per paper and
   none per edge: its workload, capacity and stage buffers are reused
   across rounds, and the stage's edges live in the matrix's scratch.
   What a round still allocates — the trimmed assignment, boxed keep
   probabilities, the stage's pair list, the objective's per-paper
   scores — measured ~100 words per paper here (200 papers, 2000
   reviewers, ~14 edges per paper, no completion scans). With boxed
   edge records and per-round reviewer arrays the same round took ~400
   words per paper; the bound sits between. *)
let test_sra_round_allocation () =
  let rng = Rng.create 2015 in
  let n_p = 200 and n_r = 2000 and dim = 100 in
  let papers = Array.init n_p (fun _ -> sparse_vec rng ~dim ~nnz:6) in
  let reviewers = Array.init n_r (fun _ -> sparse_vec rng ~dim ~nnz:8) in
  let inst =
    Instance.create_exn ~papers ~reviewers ~delta_p:3
      ~delta_r:(Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:3 + 1)
      ()
  in
  let gm = Gain_matrix.create ~candidates:16 inst in
  let ctx = { (Ctx.make ~seed:7 ~candidates:16 ()) with Ctx.gains = Some gm } in
  let start = Sdga.solve ~ctx inst in
  let words = ref [] and last = ref 0. in
  let on_round ~round:_ ~elapsed:_ ~best:_ =
    let now = Gc.minor_words () in
    words := (now -. !last) :: !words;
    last := now
  in
  last := Gc.minor_words ();
  ignore
    (Sra.refine ~on_round
       ~params:{ Sra.default_params with Sra.omega = max_int; max_rounds = 12 }
       ~ctx inst start);
  let sorted = List.sort Float.compare !words in
  let median = List.nth sorted (List.length sorted / 2) in
  let per_paper = median /. float_of_int n_p in
  Printf.printf "SRA round: median %.0f minor words, %.1f per paper\n" median per_paper;
  Alcotest.(check bool)
    (Printf.sprintf "median round allocates %.1f words per paper (bound 150)" per_paper)
    true (per_paper < 150.)

let () =
  Alcotest.run "prune"
    [
      ( "index",
        [
          QCheck_alcotest.to_alcotest
            (index_matches_brute Scoring.Weighted_coverage);
          QCheck_alcotest.to_alcotest
            (index_matches_brute Scoring.Paper_coverage);
          QCheck_alcotest.to_alcotest (index_matches_brute Scoring.Dot_product);
          QCheck_alcotest.to_alcotest index_cr_exact_when_seeded;
          QCheck_alcotest.to_alcotest shared_scratch_matches_fresh;
        ] );
      ( "matrix",
        [ QCheck_alcotest.to_alcotest pruned_cells_match_dense ] );
      ( "stage",
        [
          QCheck_alcotest.to_alcotest
            (stage_matches_boxed ~name:"exact side = boxed oracle" ~count:60 ~n_p:10
               ~n_r:30);
          QCheck_alcotest.to_alcotest
            (stage_matches_boxed ~name:"greedy side = boxed oracle" ~count:8 ~n_p:300
               ~n_r:1200);
          Alcotest.test_case "oracle shapes reach every path" `Quick
            test_stage_oracle_paths;
        ] );
      ( "solvers",
        [
          QCheck_alcotest.to_alcotest pruned_solves_valid;
          QCheck_alcotest.to_alcotest dense_identity_at_large_k;
          QCheck_alcotest.to_alcotest pruned_jobs_determinism;
          Alcotest.test_case "k=16/32 SDGA coverage >= 0.99x dense" `Quick
            test_pruned_coverage_ratio;
          Alcotest.test_case "SRA round allocates per paper" `Quick
            test_sra_round_allocation;
        ] );
    ]
