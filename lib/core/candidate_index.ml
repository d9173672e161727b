(* Inverted topic -> reviewer index over the compiled supports.

   Compiled once per instance from the [Topic_vector.support] posting
   data: for every topic, the reviewers with positive expertise there,
   sorted by descending weight (ties toward the lower id) so bounded
   traversals see the strongest postings first. [top_k] walks the
   postings of a paper's support topics, accumulating the exact
   per-reviewer score with the same sparse arithmetic as
   [Scoring.score_sparse], and keeps the k best in a score-bounded heap
   (worst candidate on top; a posting hit that cannot beat it is never
   pushed). Candidates therefore rank by the true c(r, p), not an
   approximation — for the three kinds with [f(v, 0) = 0] the untouched
   reviewers score exactly 0, so the selection is exact. [iter_scores]
   hands the same walk's exact scores to the Eq. 9 column sums. *)

module Heap = Wgrap_util.Heap

type t = {
  n_reviewers : int;
  posting_ids : int array array;  (* per topic: reviewer ids, weight desc *)
  posting_ws : float array array;  (* matching weights *)
  masses : float array;  (* reviewer masses, Reviewer_coverage correction *)
  by_mass : int array;  (* reviewer ids by descending mass, ties id asc *)
}

let n_reviewers t = t.n_reviewers

let create ~n_topics ~reviewers =
  let n_r = Array.length reviewers in
  let count = Array.make n_topics 0 in
  Array.iter
    (fun rs ->
      Array.iter (fun tt -> count.(tt) <- count.(tt) + 1) rs.Topic_vector.idx)
    reviewers;
  let posting_ids = Array.init n_topics (fun tt -> Array.make count.(tt) 0) in
  let posting_ws = Array.init n_topics (fun tt -> Array.make count.(tt) 0.) in
  let fill = Array.make n_topics 0 in
  Array.iteri
    (fun r rs ->
      let idx = rs.Topic_vector.idx and nz = rs.Topic_vector.nz in
      for j = 0 to Array.length idx - 1 do
        let tt = idx.(j) in
        let i = fill.(tt) in
        posting_ids.(tt).(i) <- r;
        posting_ws.(tt).(i) <- nz.(j);
        fill.(tt) <- i + 1
      done)
    reviewers;
  (* Postings are filled in ascending reviewer id; a stable sort on the
     weight alone keeps lower ids first among equal weights. *)
  Array.iteri
    (fun tt ids ->
      let ws = posting_ws.(tt) in
      let ord = Array.init (Array.length ids) Fun.id in
      Array.stable_sort (fun a b -> Float.compare ws.(b) ws.(a)) ord;
      posting_ids.(tt) <- Array.map (fun i -> ids.(i)) ord;
      posting_ws.(tt) <- Array.map (fun i -> ws.(i)) ord)
    posting_ids;
  let masses = Array.map (fun rs -> rs.Topic_vector.mass) reviewers in
  let by_mass = Array.init n_r Fun.id in
  Array.stable_sort (fun a b -> Float.compare masses.(b) masses.(a)) by_mass;
  { n_reviewers = n_r; posting_ids; posting_ws; masses; by_mass }

type entry = { score : float; id : int }

(* Worst candidate on top: lower score pops first; among equal scores
   the higher id pops first, so the kept set prefers lower ids. The kept
   set is uniquely determined by the (score, id) total order, so the
   result does not depend on heap internals. *)
let worst_first a b =
  match Float.compare b.score a.score with
  | 0 -> Int.compare a.id b.id
  | c -> c

let beats ~score ~id worst =
  match Float.compare score worst.score with
  | 0 -> id < worst.id
  | c -> c > 0

(* Per-task query scratch: [acc.(r)] accumulates reviewer [r]'s score
   numerator, [inside.(r)] its mass inside the paper's support
   (Reviewer_coverage only), [seen.(r)] whether the walk touched it, and
   [touched.(0 .. n_touched - 1)] the touched ids in touch order. The
   arrays grow to the largest [n_reviewers] queried and are all-zero
   between walks: each walk first resets exactly the entries the
   previous one touched, so a query costs O(postings), never O(n_r),
   and a walk cut short by an exception leaves nothing behind. *)
type scratch = {
  mutable acc : float array;
  mutable inside : float array;
  mutable seen : bool array;
  mutable touched : int array;
  mutable n_touched : int;
}

let scratch () =
  { acc = [||]; inside = [||]; seen = [||]; touched = [||]; n_touched = 0 }

let prepare s ~n_reviewers =
  for i = 0 to s.n_touched - 1 do
    let r = s.touched.(i) in
    s.acc.(r) <- 0.;
    s.inside.(r) <- 0.;
    s.seen.(r) <- false
  done;
  s.n_touched <- 0;
  if Array.length s.acc < n_reviewers then begin
    s.acc <- Array.make n_reviewers 0.;
    s.inside <- Array.make n_reviewers 0.;
    s.seen <- Array.make n_reviewers false;
    s.touched <- Array.make n_reviewers 0
  end

let touch s r =
  if not s.seen.(r) then begin
    s.seen.(r) <- true;
    s.touched.(s.n_touched) <- r;
    s.n_touched <- s.n_touched + 1
  end

let is_cr = function Scoring.Reviewer_coverage -> true | _ -> false

(* Walk the postings of the paper's support topics in topic order, so
   each reviewer's numerator accumulates its posting hits in the order
   [Scoring.score_sparse] visits them; the topics a reviewer misses add
   an exact [0.] there for the three kinds with [f(v, 0) = 0]. [seeds]
   reviewers are touched first, hit or not. *)
let walk t s ~scoring ~seeds (paper : Topic_vector.support) =
  prepare s ~n_reviewers:t.n_reviewers;
  for i = 0 to seeds - 1 do
    touch s t.by_mass.(i)
  done;
  let cr = is_cr scoring in
  let idx = paper.Topic_vector.idx and nz = paper.Topic_vector.nz in
  for j = 0 to Array.length idx - 1 do
    let tt = idx.(j) in
    let pv = nz.(j) in
    let ids = t.posting_ids.(tt) and ws = t.posting_ws.(tt) in
    (* The numerators accumulate inside [Scoring], where the per-topic
       term is inlined and stays an unboxed float. *)
    Scoring.add_postings scoring ~acc:s.acc ~ids ~ws pv;
    for i = 0 to Array.length ids - 1 do
      let r = ids.(i) in
      if cr then s.inside.(r) <- s.inside.(r) +. ws.(i);
      touch s r
    done
  done

let score_of t s ~scoring (paper : Topic_vector.support) r =
  let pmass = paper.Topic_vector.mass in
  if pmass <= 0. then 0.
  else if is_cr scoring then
    (* Associate exactly as [Scoring.score_sparse] does —
       [acc + (mass - inside)] — so the score is bit-identical to
       [Instance.pair_score] and near-ties cannot flip. *)
    (s.acc.(r) +. (t.masses.(r) -. s.inside.(r))) /. pmass
  else s.acc.(r) /. pmass

let iter_scores t s ~scoring paper f =
  if is_cr scoring then
    invalid_arg "Candidate_index.iter_scores: Reviewer_coverage scores every reviewer";
  walk t s ~scoring ~seeds:0 paper;
  for i = 0 to s.n_touched - 1 do
    let r = s.touched.(i) in
    f r (score_of t s ~scoring paper r)
  done

let top_k t s ~scoring ~k ?(forbidden = fun _ -> false)
    (paper : Topic_vector.support) =
  if k < 1 then invalid_arg "Candidate_index.top_k: k must be >= 1";
  (* Reviewer_coverage scores off-support reviewer mass in full, so a
     high-mass reviewer with zero overlap can still rank: seed the
     candidate set with the globally heaviest reviewers (their exact
     score needs no posting hits), then let posting hits refine it. *)
  let seeds = if is_cr scoring then min t.n_reviewers ((4 * k) + 16) else 0 in
  walk t s ~scoring ~seeds paper;
  let heap = Heap.create ~capacity:(k + 1) ~cmp:worst_first () in
  (* Candidates are offered in touch order; the kept set is
     order-independent. *)
  for i = 0 to s.n_touched - 1 do
    let r = s.touched.(i) in
    if not (forbidden r) then begin
      let score = score_of t s ~scoring paper r in
      if Heap.length heap < k then Heap.push heap { score; id = r }
      else
        match Heap.peek heap with
        | Some worst when beats ~score ~id:r worst ->
            ignore (Heap.pop heap);
            Heap.push heap { score; id = r }
        | _ -> ()
    end
  done;
  let kept = Array.make (Heap.length heap) 0 in
  let i = ref 0 in
  let rec drain () =
    match Heap.pop heap with
    | Some e ->
        kept.(!i) <- e.id;
        incr i;
        drain ()
    | None -> ()
  in
  drain ();
  Array.sort Int.compare kept;
  kept
