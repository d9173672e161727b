(* PR 2 kernel tests: the dense scoring functions are the oracle for
   the O(nnz) sparse kernels, and a from-scratch rebuild is the oracle
   for [Gain_matrix]'s incremental row invalidation. *)

module Rng = Wgrap_util.Rng
open Wgrap

let tol = 1e-12

(* A vector with exact zeros: each coordinate is kept with probability
   [density], so supports are genuinely sparse and off-support branches
   of the kernels are exercised. *)
let sparse_vec rng ?(density = 0.4) dim =
  Array.init dim (fun _ ->
      if Rng.uniform rng < density then 0.05 +. Rng.uniform rng else 0.)

let edge_papers dim =
  [
    Array.make dim 0.;
    (* zero mass *)
    (let v = Array.make dim 0. in
     v.(dim / 2) <- 0.7;
     v);
    (* single topic *)
    Array.make dim 0.25;
    (* fully dense *)
  ]

(* {1 Sparse kernels vs the dense oracle} *)

let test_score_sparse_matches_dense () =
  let rng = Rng.create 11 in
  let dim = 12 in
  let papers =
    edge_papers dim @ List.init 60 (fun _ -> sparse_vec rng dim)
  in
  List.iter
    (fun kind ->
      List.iter
        (fun paper ->
          let support = Topic_vector.support paper in
          for _ = 1 to 5 do
            let v = sparse_vec rng dim in
            let dense = Scoring.score kind v paper in
            let sparse =
              Scoring.score_sparse kind ~v ~v_mass:(Topic_vector.mass v) support
            in
            Alcotest.(check (float tol))
              (Scoring.name kind ^ " score") dense sparse;
            (match kind with
            | Scoring.Reviewer_coverage -> ()
            | _ ->
                (* f(v, 0) = 0 exactly: the sparse sum is the dense sum. *)
                Alcotest.(check bool)
                  (Scoring.name kind ^ " score bitwise") true (dense = sparse))
          done)
        papers)
    Scoring.all

let test_gain_sparse_matches_dense () =
  let rng = Rng.create 13 in
  let dim = 12 in
  let papers =
    edge_papers dim @ List.init 60 (fun _ -> sparse_vec rng dim)
  in
  List.iter
    (fun kind ->
      List.iter
        (fun paper ->
          let psupp = Topic_vector.support paper in
          for _ = 1 to 5 do
            let r = sparse_vec rng dim in
            let group =
              if Rng.uniform rng < 0.2 then Scoring.empty_group ~dim
              else sparse_vec rng dim
            in
            let dense = Scoring.gain kind ~group r paper in
            let sparse =
              Scoring.gain_sparse kind ~group (Topic_vector.support r) psupp
            in
            Alcotest.(check (float tol))
              (Scoring.name kind ^ " gain") dense sparse
          done)
        papers)
    Scoring.all

let test_row_kernels_match_cells () =
  let rng = Rng.create 17 in
  let dim = 10 and n_r = 15 in
  let reviewers = Array.init n_r (fun _ -> sparse_vec rng dim) in
  let supports = Array.map Topic_vector.support reviewers in
  let dst = Array.make n_r 0. in
  List.iter
    (fun kind ->
      List.iter
        (fun paper ->
          let psupp = Topic_vector.support paper in
          Scoring.score_into kind ~dst ~reviewers:supports psupp;
          Array.iteri
            (fun r v ->
              Alcotest.(check (float tol))
                "score_into cell"
                (Scoring.score kind reviewers.(r) paper)
                v)
            dst;
          let group = sparse_vec rng dim in
          let layout =
            if Scoring.support_group kind then
              Array.map (fun t -> group.(t)) psupp.Topic_vector.idx
            else group
          in
          let row = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n_r in
          Scoring.gain_row kind ~dst:row ~group:layout ~reviewers:supports
            ~cands:(Array.init n_r Fun.id) psupp;
          for r = 0 to n_r - 1 do
            Alcotest.(check (float tol))
              "gain_row cell"
              (Scoring.gain kind ~group reviewers.(r) paper)
              (Bigarray.Array1.get row r)
          done)
        (edge_papers dim @ List.init 20 (fun _ -> sparse_vec rng dim)))
    Scoring.all

let test_group_score_sparse () =
  let rng = Rng.create 19 in
  let dim = 9 in
  List.iter
    (fun kind ->
      for _ = 1 to 50 do
        let paper = sparse_vec rng dim in
        let vecs = List.init (1 + Rng.int rng 4) (fun _ -> sparse_vec rng dim) in
        Alcotest.(check (float tol))
          (Scoring.name kind ^ " group score")
          (Scoring.group_score kind vecs paper)
          (Scoring.group_score_sparse kind vecs (Topic_vector.support paper))
      done)
    Scoring.all

(* [Assignment.paper_score] against the dense kernel on the dense group
   vector: bit-equal for c/cP/cD (the sparse path), and the dense path
   itself for cR. Random conflicts ride along, groups may be empty, and
   edge papers (zero mass, one topic, dense) appear among the rows. *)
let paper_score_matches_dense =
  QCheck.Test.make ~name:"paper_score = dense score of group_vector, bitwise"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dim = 4 + Rng.int rng 12 in
      let n_p = 2 + Rng.int rng 6 and n_r = 3 + Rng.int rng 10 in
      let papers =
        Array.of_list
          (List.filteri (fun i _ -> i < n_p)
             (List.filter (fun _ -> Rng.bool rng) (edge_papers dim)
             @ List.init n_p (fun _ -> sparse_vec rng ~density:(Rng.uniform rng) dim)))
      in
      let n_p = Array.length papers in
      let reviewers = Array.init n_r (fun _ -> sparse_vec rng dim) in
      let coi =
        List.filter_map
          (fun p -> if Rng.bool rng then Some (p, Rng.int rng n_r) else None)
          (List.init n_p Fun.id)
      in
      let a =
        Assignment.of_pairs ~n_papers:n_p
          (List.concat_map
             (fun p ->
               List.filter_map
                 (fun r -> if Rng.uniform rng < 0.3 then Some (r, p) else None)
                 (List.init n_r Fun.id))
             (List.init n_p Fun.id))
      in
      List.for_all
        (fun kind ->
          let inst =
            Instance.create_exn ~scoring:kind ~coi ~papers ~reviewers ~delta_p:1
              ~delta_r:n_p ()
          in
          List.for_all
            (fun p ->
              let dense =
                Scoring.score kind (Assignment.group_vector inst a p) papers.(p)
              in
              let got = Assignment.paper_score inst a p in
              Int64.equal (Int64.bits_of_float dense) (Int64.bits_of_float got)
              || QCheck.Test.fail_reportf "%s paper %d (group of %d): dense %h, got %h"
                   (Scoring.name kind) p
                   (List.length (Assignment.group a p))
                   dense got)
            (List.init n_p Fun.id))
        Scoring.all)

(* {1 Gain_matrix: incremental invalidation vs from-scratch rebuild} *)

let random_instance ?(scoring = Scoring.Weighted_coverage) rng ~n_p ~n_r ~dim =
  let papers = Array.init n_p (fun _ -> sparse_vec rng dim) in
  let reviewers = Array.init n_r (fun _ -> sparse_vec rng dim) in
  let coi = if Rng.uniform rng < 0.5 then [ (0, 0); (1, n_r - 1) ] else [] in
  let delta_p = 3 in
  let delta_r =
    Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p + 1
  in
  Instance.create_exn ~scoring ~coi ~papers ~reviewers ~delta_p ~delta_r ()

(* Oracle for one row: dense gains against the group vector implied by
   [members], for non-member reviewers (member cells are unspecified by
   contract — every consumer masks them). A pruned row has cells for
   its candidates only; a dense row must fill every one. *)
let check_rows inst gm groups =
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  let row = Array.make n_r nan in
  for p = 0 to n_p - 1 do
    let vecs = List.map (fun r -> inst.Instance.reviewers.(r)) groups.(p) in
    let gvec =
      match vecs with
      | [] -> Scoring.empty_group ~dim:(Instance.n_topics inst)
      | _ -> Topic_vector.group_max vecs
    in
    Array.fill row 0 n_r nan;
    Gain_matrix.iter_row gm ~paper:p (fun ~reviewer ~gain ->
        row.(reviewer) <- gain);
    for r = 0 to n_r - 1 do
      if not (List.mem r groups.(p)) then begin
        let expected =
          Scoring.gain inst.Instance.scoring ~group:gvec
            inst.Instance.reviewers.(r) inst.Instance.papers.(p)
        in
        if not (Gain_matrix.pruned gm && Float.is_nan row.(r)) then
          Alcotest.(check (float tol)) "row cell" expected row.(r);
        Alcotest.(check (float tol))
          "point gain" expected
          (Gain_matrix.gain gm ~paper:p ~reviewer:r)
      end
    done
  done

let test_gain_matrix_incremental () =
  List.iter
    (fun scoring ->
      let rng = Rng.create 23 in
      let inst = random_instance ~scoring rng ~n_p:6 ~n_r:10 ~dim:8 in
      let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
      let gm = Gain_matrix.create inst in
      let groups = Array.make n_p [] in
      check_rows inst gm groups;
      (* Scripted interleaving of adds and wholesale rebuilds, checking
         every row against the dense oracle after each step. *)
      for step = 1 to 40 do
        let p = Rng.int rng n_p in
        if step mod 7 = 0 then begin
          let members =
            List.sort_uniq compare
              (List.init (Rng.int rng 4) (fun _ -> Rng.int rng n_r))
          in
          groups.(p) <- members;
          Gain_matrix.set_group gm ~paper:p members
        end
        else begin
          let r = Rng.int rng n_r in
          if not (List.mem r groups.(p)) then begin
            groups.(p) <- r :: groups.(p);
            Gain_matrix.add gm ~paper:p ~reviewer:r
          end
        end;
        check_rows inst gm groups
      done;
      (* reset returns to the all-empty state. *)
      Gain_matrix.reset gm;
      Array.fill groups 0 n_p [];
      check_rows inst gm groups)
    Scoring.all

let test_gain_matrix_version_monotone () =
  let rng = Rng.create 29 in
  let inst = random_instance rng ~n_p:4 ~n_r:8 ~dim:6 in
  let gm = Gain_matrix.create inst in
  let last = Array.init 4 (fun p -> Gain_matrix.version gm ~paper:p) in
  for _ = 1 to 30 do
    let p = Rng.int rng 4 and r = Rng.int rng 8 in
    Gain_matrix.add gm ~paper:p ~reviewer:r;
    let v = Gain_matrix.version gm ~paper:p in
    Alcotest.(check bool) "version monotone" true (v >= last.(p));
    last.(p) <- v
  done;
  (* Re-adding a dominated reviewer must not invalidate the row. *)
  Gain_matrix.add gm ~paper:0 ~reviewer:0;
  let before = Gain_matrix.version gm ~paper:0 in
  Gain_matrix.add gm ~paper:0 ~reviewer:0;
  Alcotest.(check int) "idempotent add keeps version" before
    (Gain_matrix.version gm ~paper:0)

(* Test-local Eq. 9 reference: one fresh score row per paper, streamed
   in paper order, COI cells (the [forbidden] sentinel) skipped — the
   arithmetic the sums were defined by. *)
let column_sums inst =
  let sums = Array.make (Instance.n_reviewers inst) 0. in
  for p = 0 to Instance.n_papers inst - 1 do
    Array.iteri
      (fun r s ->
        if s <> Lap.Hungarian.forbidden then sums.(r) <- sums.(r) +. s)
      (Instance.score_row inst ~paper:p)
  done;
  sums

(* A fresh matrix over an instance carrying one extra conflict on a
   pair that scores under every kind, at both widths: rows match the
   dense oracle, and the Eq. 9 sums exclude the new conflict — it moved
   them. *)
let test_gain_matrix_extra_coi () =
  List.iter
    (fun k ->
      let rng = Rng.create 37 in
      let inst = random_instance rng ~n_p:6 ~n_r:10 ~dim:8 in
      let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
      let groups =
        Array.init n_p (fun p ->
            List.sort_uniq compare [ (p + 1) mod n_r; (p + 3) mod n_r ])
      in
      let pair =
        List.find
          (fun (p, r) ->
            (not (Instance.forbidden inst ~paper:p ~reviewer:r))
            && List.for_all
                 (fun kind ->
                   Instance.pair_score (Instance.with_scoring inst kind)
                     ~paper:p ~reviewer:r
                   > 0.)
                 Scoring.all)
          (List.concat_map
             (fun p -> List.init n_r (fun r -> (p, r)))
             (List.init n_p Fun.id))
      in
      List.iter
        (fun kind ->
          let name = Scoring.name kind in
          let base = Instance.with_scoring inst kind in
          let coi_inst =
            Instance.create_exn ~scoring:kind
              ~coi:(pair :: Instance.coi_pairs inst)
              ~papers:inst.Instance.papers ~reviewers:inst.Instance.reviewers
              ~delta_p:inst.Instance.delta_p ~delta_r:inst.Instance.delta_r ()
          in
          let gm = Gain_matrix.create ~candidates:k coi_inst in
          Alcotest.(check bool) "width" (k > 0) (Gain_matrix.pruned gm);
          Array.iteri (fun p g -> Gain_matrix.set_group gm ~paper:p g) groups;
          check_rows coi_inst gm groups;
          let expected = column_sums coi_inst in
          Alcotest.(check bool) (name ^ ": COI moved the sums") false
            (expected = column_sums base);
          Alcotest.(check (array (float 0.)))
            (name ^ " sums") expected
            (Gain_matrix.column_denominators gm))
        Scoring.all)
    [ 0; 4 ]

(* {1 Weight blocks and support-indexed groups: bitwise oracle}

   Every row cell — members' cells included — and every point gain of a
   matrix, dense or pruned, equals [Scoring.gain_sparse] on the dense
   group vector of the paper's members, bit for bit, after any sequence
   of [add]s and [set_group]s. Under the three kinds with f(v, 0) = 0
   the matrix keeps its groups on the paper's support and pruned rows
   read the weight block; under Reviewer_coverage the group is dense
   and the off-support correction applies. *)
let bits = Int64.bits_of_float

let block_rows_bitwise =
  QCheck.Test.make ~name:"gain rows = Scoring.gain_sparse bitwise" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_p = 3 + Rng.int rng 6 and n_r = 6 + Rng.int rng 14 in
      let dim = 4 + Rng.int rng 12 in
      let papers = Array.init n_p (fun _ -> sparse_vec rng ~density:0.35 dim) in
      (* Quantized reviewers: equal weights, so group maxima tie. *)
      let reviewers =
        Array.init n_r (fun _ ->
            Array.map (fun x -> Float.round (x *. 4.) /. 4.) (sparse_vec rng dim))
      in
      let coi =
        List.init (Rng.int rng 6) (fun _ -> (Rng.int rng n_p, Rng.int rng n_r))
      in
      let kind = List.nth Scoring.all (Rng.int rng 4) in
      let inst =
        Instance.create_exn ~scoring:kind ~coi ~papers ~reviewers ~delta_p:2
          ~delta_r:(Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:2)
          ()
      in
      let k = if Rng.bool rng then 0 else 1 + Rng.int rng (n_r - 1) in
      let gm = Gain_matrix.create ~candidates:k inst in
      let groups = Array.make n_p [] in
      let check step =
        for p = 0 to n_p - 1 do
          let group =
            match groups.(p) with
            | [] -> Scoring.empty_group ~dim
            | g -> Topic_vector.group_max (List.map (fun r -> reviewers.(r)) g)
          in
          let oracle r =
            Scoring.gain_sparse kind ~group (Instance.reviewer_support inst r)
              (Instance.paper_support inst p)
          in
          let row = Gain_matrix.row gm ~paper:p in
          Array.iteri
            (fun i r ->
              let got = Bigarray.Array1.get row i in
              if not (Int64.equal (bits got) (bits (oracle r))) then
                QCheck.Test.fail_reportf "%s k=%d step %d: cell (%d, %d) %h, oracle %h"
                  (Scoring.name kind) k step p r got (oracle r))
            (Gain_matrix.candidates gm ~paper:p);
          for r = 0 to n_r - 1 do
            let got = Gain_matrix.gain gm ~paper:p ~reviewer:r in
            if not (Int64.equal (bits got) (bits (oracle r))) then
              QCheck.Test.fail_reportf "%s k=%d step %d: gain (%d, %d) %h, oracle %h"
                (Scoring.name kind) k step p r got (oracle r)
          done
        done
      in
      check 0;
      for step = 1 to 30 do
        let p = Rng.int rng n_p in
        (match Rng.int rng 4 with
        | 0 ->
            let members =
              List.sort_uniq Int.compare
                (List.init (Rng.int rng 4) (fun _ -> Rng.int rng n_r))
            in
            groups.(p) <- members;
            Gain_matrix.set_group gm ~paper:p members
        | 1 when step mod 10 = 0 ->
            Gain_matrix.reset gm;
            Array.fill groups 0 n_p []
        | _ ->
            let r = Rng.int rng n_r in
            if not (List.mem r groups.(p)) then begin
              groups.(p) <- r :: groups.(p);
              Gain_matrix.add gm ~paper:p ~reviewer:r
            end);
        check step
      done;
      true)

(* [Scoring.gain_row] with a weight block and without one, against the
   cell kernel, on the kind's group layout. *)
let test_gain_row_block () =
  let rng = Rng.create 41 in
  let dim = 14 and n_r = 12 in
  let reviewers = Array.init n_r (fun _ -> sparse_vec rng dim) in
  let supports = Array.map Topic_vector.support reviewers in
  List.iter
    (fun kind ->
      for _ = 1 to 20 do
        let paper = sparse_vec rng dim in
        let p = Topic_vector.support paper in
        let idx = p.Topic_vector.idx in
        let m = Array.length idx in
        let cands =
          Array.of_list
            (List.filter (fun _ -> Rng.bool rng) (List.init n_r Fun.id))
        in
        let n = Array.length cands in
        let dense_group = sparse_vec rng dim in
        let group =
          if Scoring.support_group kind then Array.map (fun t -> dense_group.(t)) idx
          else dense_group
        in
        let block =
          Array.init (n * m) (fun c -> reviewers.(cands.(c / max 1 m)).(idx.(c mod max 1 m)))
        in
        let fresh () =
          Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
        in
        let with_block = fresh () and without = fresh () in
        Scoring.gain_row kind ~dst:with_block ~group ~block ~reviewers:supports ~cands p;
        Scoring.gain_row kind ~dst:without ~group ~reviewers:supports ~cands p;
        Array.iteri
          (fun i r ->
            let oracle = bits (Scoring.gain_sparse kind ~group:dense_group supports.(r) p) in
            let label = Printf.sprintf "%s reviewer %d" (Scoring.name kind) r in
            Alcotest.(check int64) (label ^ ": block row") oracle
              (bits (Bigarray.Array1.get with_block i));
            Alcotest.(check int64) (label ^ ": dense row") oracle
              (bits (Bigarray.Array1.get without i));
            Alcotest.(check int64) (label ^ ": cell") oracle
              (bits (Scoring.gain_cell kind ~group supports.(r) p)))
          cands
      done)
    Scoring.all

(* {1 Eq. 9 denominators and Eq. 10: one source of truth} *)

(* The cached denominators equal the streamed reference bit for bit —
   every kind, with conflicts, dense and pruned — and Eq. 10 reads
   them. Instances are sparse enough that every paper's posting sweep
   misses reviewers. *)
let test_denominators_agree () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let n_p = 12 and n_r = 40 and dim = 30 in
      let papers = Array.init n_p (fun _ -> sparse_vec rng ~density:0.15 dim) in
      let reviewers =
        Array.init n_r (fun _ -> sparse_vec rng ~density:0.15 dim)
      in
      let coi =
        List.init 10 (fun _ -> (Rng.int rng n_p, Rng.int rng n_r))
      in
      List.iter
        (fun kind ->
          let inst =
            Instance.create_exn ~scoring:kind ~coi ~papers ~reviewers ~delta_p:3
              ~delta_r:(Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p:3)
              ()
          in
          let expected = column_sums inst in
          List.iter
            (fun k ->
              let label = Printf.sprintf "seed %d %s k=%d" seed (Scoring.name kind) k in
              let denom =
                Gain_matrix.column_denominators (Gain_matrix.create ~candidates:k inst)
              in
              Alcotest.(check (array int64))
                (label ^ ": denominators bitwise")
                (Array.map Int64.bits_of_float expected)
                (Array.map Int64.bits_of_float denom);
              (* Eq. 10 against the reference sums. *)
              for p = 0 to n_p - 1 do
                let row = Instance.score_row inst ~paper:p in
                for r = 0 to n_r - 1 do
                  let s = row.(r) in
                  let ratio =
                    if expected.(r) > 0. && s <> Lap.Hungarian.forbidden then
                      s /. expected.(r)
                    else 0.
                  in
                  Alcotest.(check (float tol))
                    (label ^ ": eq10")
                    (Float.max
                       (1. /. float_of_int n_r)
                       (exp (-0.05 *. 3.) *. ratio))
                    (Sra.keep_probability ~denom ~score:s ~round:3 ~lambda:0.05
                       ~reviewer:r)
                done
              done)
            [ 0; 16 ])
        Scoring.all)
    [ 31; 32; 33 ]

(* {1 Solvers: shared gain matrix changes nothing observable} *)

let sorted_pairs a = List.sort compare (Assignment.pairs a)

(* Under every scoring kind, a stage solved on the shared matrix (sparse
   kernels) reaches the optimum that min-cost flow finds over the dense
   kernels' gains. *)
let test_stage_reaches_dense_optimum () =
  let rng = Rng.create 37 in
  List.iter
    (fun scoring ->
      let inst = random_instance ~scoring rng ~n_p:6 ~n_r:10 ~dim:8 in
      let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
      let current = Assignment.empty ~n_papers:n_p in
      let capacity = Array.make n_r 1 in
      let empty = Scoring.empty_group ~dim:(Instance.n_topics inst) in
      let score =
        Array.init n_p (fun p ->
            Array.init n_r (fun r ->
                if Instance.forbidden inst ~paper:p ~reviewer:r then
                  Lap.Hungarian.forbidden
                else
                  Scoring.gain scoring ~group:empty inst.Instance.reviewers.(r)
                    inst.Instance.papers.(p)))
      in
      let flows =
        Lap.Mcmf.transportation ~row_supply:(Array.make n_p 1)
          ~col_capacity:capacity score
      in
      let optimum = ref 0. in
      Array.iteri
        (fun p rs -> List.iter (fun r -> optimum := !optimum +. score.(p).(r)) rs)
        flows;
      let pairs =
        Stage.solve ~gains:(Gain_matrix.create inst) inst ~current ~capacity
      in
      Alcotest.(check int) (Scoring.name scoring ^ " pair count") n_p
        (List.length pairs);
      Alcotest.(check (float 1e-9)) (Scoring.name scoring ^ " stage optimum")
        !optimum
        (List.fold_left (fun acc (p, r) -> acc +. score.(p).(r)) 0. pairs))
    Scoring.all

let test_sdga_with_gains_matches_without () =
  let rng = Rng.create 41 in
  for _trial = 0 to 4 do
    let inst = random_instance rng ~n_p:5 ~n_r:10 ~dim:8 in
    let plain = Sdga.solve inst in
    let gm = Gain_matrix.create inst in
    (* Dirty the matrix first: solvers reset their gain state on entry. *)
    Gain_matrix.add gm ~paper:0 ~reviewer:1;
    let shared = Sdga.solve ~ctx:(Ctx.make ~gains:gm ()) inst in
    Alcotest.(check (list (pair int int)))
      "sdga pairs" (sorted_pairs plain) (sorted_pairs shared)
  done

let test_greedy_with_gains_matches_without () =
  let rng = Rng.create 43 in
  for _ = 0 to 4 do
    let inst = random_instance rng ~n_p:5 ~n_r:10 ~dim:8 in
    let plain = Greedy.solve inst in
    let gm = Gain_matrix.create inst in
    Gain_matrix.add gm ~paper:2 ~reviewer:3;
    let shared = Greedy.solve ~ctx:(Ctx.make ~gains:gm ()) inst in
    Alcotest.(check (list (pair int int)))
      "greedy pairs" (sorted_pairs plain) (sorted_pairs shared);
    (* Lazy greedy must still match the naive rescan ablation baseline's
       objective (ties may be broken differently). *)
    let rescan = Greedy.solve_rescan inst in
    Alcotest.(check (float 1e-9))
      "greedy vs rescan objective"
      (Assignment.coverage inst rescan)
      (Assignment.coverage inst plain)
  done

let test_sra_with_gains_matches_without () =
  let rng = Rng.create 47 in
  let inst = random_instance rng ~n_p:5 ~n_r:10 ~dim:8 in
  let start = Sdga.solve inst in
  let params = { Sra.default_params with Sra.max_rounds = 5; omega = 100 } in
  let plain = Sra.refine ~params ~ctx:(Ctx.make ~seed:7 ()) inst start in
  let gm = Gain_matrix.create inst in
  Gain_matrix.add gm ~paper:1 ~reviewer:2;
  let shared =
    Sra.refine ~params ~ctx:(Ctx.make ~seed:7 ~gains:gm ()) inst start
  in
  Alcotest.(check (list (pair int int)))
    "sra pairs" (sorted_pairs plain) (sorted_pairs shared)

(* {1 Sparse solvers vs the dense replica they replaced}

   [Dense_baseline] is the verbatim pre-sparse SDGA/SRA. On a 30 x 60,
   delta_p = 3 instance for each cell of T in {25, 100, 250} x
   sparsity in {5%, 20%, dense} (seed 2015), both paths must reach the
   same coverage: SDGA directly, SRA over 4 rounds from the same seed
   with the early stop disabled. *)

let replica_vec rng ~dim ~sparsity =
  match sparsity with
  | None -> Topic_vector.normalize (Array.init dim (fun _ -> 0.05 +. Rng.uniform rng))
  | Some s ->
      let k = max 1 (int_of_float (Float.round (s *. float_of_int dim))) in
      let v = Array.make dim 0. in
      Array.iter
        (fun t -> v.(t) <- 0.05 +. Rng.uniform rng)
        (Rng.sample_without_replacement rng k dim);
      Topic_vector.normalize v

let test_solvers_match_dense_replica () =
  let n_p = 30 and n_r = 60 and delta_p = 3 and rounds = 4 in
  List.iter
    (fun (dim, sparsity) ->
      let rng = Rng.create 2015 in
      let papers = Array.init n_p (fun _ -> replica_vec rng ~dim ~sparsity) in
      let reviewers = Array.init n_r (fun _ -> replica_vec rng ~dim ~sparsity) in
      let delta_r = Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p in
      let inst =
        Instance.create_exn ~papers ~reviewers ~delta_p ~delta_r ()
      in
      let cell =
        Printf.sprintf "T=%d sparsity=%s" dim
          (match sparsity with
          | None -> "dense"
          | Some s -> Printf.sprintf "%.0f%%" (s *. 100.))
      in
      let sdga = Sdga.solve inst in
      Alcotest.(check (float 1e-9))
        (cell ^ ": SDGA coverage")
        (Assignment.coverage inst (Dense_baseline.sdga inst))
        (Assignment.coverage inst sdga);
      let lambda = Sra.default_params.Sra.lambda in
      let dense =
        Dense_baseline.sra_refine ~lambda ~rounds ~rng:(Rng.create 42) inst sdga
      in
      let sparse =
        Sra.refine
          ~params:{ Sra.omega = max_int; lambda; max_rounds = rounds }
          ~ctx:(Ctx.make ~seed:42 ()) inst sdga
      in
      Alcotest.(check (float 1e-9))
        (cell ^ ": SRA coverage")
        (Assignment.coverage inst dense)
        (Assignment.coverage inst sparse))
    (List.concat_map
       (fun dim -> List.map (fun s -> (dim, s)) [ Some 0.05; Some 0.20; None ])
       [ 25; 100; 250 ])

let () =
  Alcotest.run "kernel"
    [
      ( "sparse kernels",
        [
          Alcotest.test_case "score sparse = dense" `Quick
            test_score_sparse_matches_dense;
          Alcotest.test_case "gain sparse = dense" `Quick
            test_gain_sparse_matches_dense;
          Alcotest.test_case "row kernels = cells" `Quick
            test_row_kernels_match_cells;
          Alcotest.test_case "group score sparse" `Quick test_group_score_sparse;
          QCheck_alcotest.to_alcotest paper_score_matches_dense;
        ] );
      ( "gain matrix",
        [
          Alcotest.test_case "incremental = rebuild" `Quick
            test_gain_matrix_incremental;
          Alcotest.test_case "versions monotone" `Quick
            test_gain_matrix_version_monotone;
          Alcotest.test_case "extra COI on a fresh matrix" `Quick
            test_gain_matrix_extra_coi;
          QCheck_alcotest.to_alcotest block_rows_bitwise;
          Alcotest.test_case "gain_row with and without a block" `Quick
            test_gain_row_block;
        ] );
      ( "denominators",
        [ Alcotest.test_case "one source of truth" `Quick test_denominators_agree ] );
      ( "solvers",
        [
          Alcotest.test_case "stage" `Quick test_stage_reaches_dense_optimum;
          Alcotest.test_case "sdga" `Quick test_sdga_with_gains_matches_without;
          Alcotest.test_case "greedy" `Quick
            test_greedy_with_gains_matches_without;
          Alcotest.test_case "sra" `Quick test_sra_with_gains_matches_without;
          Alcotest.test_case "SDGA/SRA = dense replica" `Quick
            test_solvers_match_dense_replica;
        ] );
    ]
