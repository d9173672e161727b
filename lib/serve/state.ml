module TV = Wgrap.Topic_vector
module Scoring = Wgrap.Scoring
module Jra = Wgrap.Jra
module Solver = Wgrap.Solver
module Ctx = Wgrap.Ctx
module Instance = Wgrap.Instance
module Assignment = Wgrap.Assignment
module Objective = Wgrap.Objective
module Summary = Wgrap.Summary
module Timer = Wgrap_util.Timer
module Crc32 = Wgrap_persist.Crc32

(* The coverage kernel every planner scores with. The resident
   objective (below) does not reshape per-event planning (each event
   re-solves one paper); it surfaces only in [summary]. *)
let scoring = Scoring.Weighted_coverage

type t = {
  dim : int;
  delta_p : int;
  delta_r : int;
  papers : (int, float array) Hashtbl.t;
  reviewers : (int, float array) Hashtbl.t;
  coi : (int * int, unit) Hashtbl.t;  (** (paper, reviewer) *)
  bids : (int * int, float) Hashtbl.t;  (** (paper, reviewer) -> weight *)
  groups : (int, int list) Hashtbl.t;  (** ascending; total over papers *)
  workload : (int, int) Hashtbl.t;  (** missing = 0 *)
  pending : (int, unit) Hashtbl.t;
  mutable last_client : int;
  mutable applied : int;
  mutable objective : Objective.spec;
      (** reporting-only runtime config: it shapes what {!summary}
          values, never a plan, and the snapshot codec never records
          it *)
}

let create ~dim ~delta_p ~delta_r () =
  if dim < 1 then Error "dim must be >= 1"
  else if delta_p < 1 then Error "delta-p must be >= 1"
  else if delta_r < 1 then Error "delta-r must be >= 1"
  else
    Ok
      {
        dim;
        delta_p;
        delta_r;
        objective = Objective.coverage;
        papers = Hashtbl.create 64;
        reviewers = Hashtbl.create 64;
        coi = Hashtbl.create 64;
        bids = Hashtbl.create 64;
        groups = Hashtbl.create 64;
        workload = Hashtbl.create 64;
        pending = Hashtbl.create 16;
        last_client = -1;
        applied = 0;
      }

let dim t = t.dim
let delta_p t = t.delta_p
let delta_r t = t.delta_r
let objective t = t.objective

let set_objective t spec = t.objective <- spec

let applied t = t.applied
let last_client t = t.last_client
let n_papers t = Hashtbl.length t.papers
let n_reviewers t = Hashtbl.length t.reviewers

let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) tbl [])
let pending t = sorted_keys t.pending
let group t p = Hashtbl.find_opt t.groups p
let workload_of t r = Option.value ~default:0 (Hashtbl.find_opt t.workload r)

type answer = { group : int list; score : float; short : bool; is_pending : bool }

let query t p =
  match (Hashtbl.find_opt t.papers p, Hashtbl.find_opt t.groups p) with
  | Some pvec, Some g ->
      let score =
        match g with
        | [] -> 0.
        | _ ->
            Scoring.group_score scoring
              (List.map (Hashtbl.find t.reviewers) g)
              pvec
      in
      Some
        {
          group = g;
          score;
          short = List.length g < t.delta_p;
          is_pending = Hashtbl.mem t.pending p;
        }
  | _ -> None

(* The chair-facing report over the committed groups, under the
   resident objective — the payload of the service's stats read, built
   from the roster on each call. An over-subscribed committee (more
   slots than capacity, or delta_p > R) still gets a report: the report
   instance caps delta_p at R and raises delta_r to the balanced
   minimum workload. Neither bound changes a reported value: Summary
   and the coverage/min objectives never read them, and
   delta_p is kept whenever it fits. *)
let summary t =
  let pids = Array.of_list (sorted_keys t.papers) in
  let rids = Array.of_list (sorted_keys t.reviewers) in
  let n_p = Array.length pids and n_r = Array.length rids in
  if n_p = 0 || n_r = 0 then None
  else begin
    let pidx = Hashtbl.create n_p and ridx = Hashtbl.create n_r in
    Array.iteri (fun i p -> Hashtbl.replace pidx p i) pids;
    Array.iteri (fun i r -> Hashtbl.replace ridx r i) rids;
    let coi =
      Hashtbl.fold
        (fun (p, r) () acc -> (Hashtbl.find pidx p, Hashtbl.find ridx r) :: acc)
        t.coi []
    in
    let delta_p = min t.delta_p n_r in
    let delta_r =
      max t.delta_r (Instance.min_workload ~papers:n_p ~reviewers:n_r ~delta_p)
    in
    match
      Instance.create ~scoring ~coi
        ~papers:(Array.map (Hashtbl.find t.papers) pids)
        ~reviewers:(Array.map (Hashtbl.find t.reviewers) rids)
        ~delta_p ~delta_r ()
    with
    | Error _ -> None
    | Ok inst -> (
        let a = Assignment.empty ~n_papers:n_p in
        Array.iteri
          (fun i p ->
            a.Assignment.groups.(i) <-
              List.map (Hashtbl.find ridx) (Hashtbl.find t.groups p))
          pids;
        match Summary.compute ~objective:t.objective inst a with
        | s -> Some s
        | exception Invalid_argument _ ->
            (* spec parameters shaped to some other instance (a Blend
               matrix) *)
            None)
  end

(* {1 Admission-time validation} *)

let check_vec t what v =
  if Array.length v <> t.dim then
    Error
      (Printf.sprintf "%s vector has %d components, instance dimension is %d"
         what (Array.length v) t.dim)
  else
    match TV.validate v with
    | Error m -> Error (Printf.sprintf "%s vector: %s" what m)
    | Ok () -> Ok ()

let validate_req t (req : Event.req) =
  let known_paper p =
    if Hashtbl.mem t.papers p then Ok ()
    else Error (Printf.sprintf "unknown paper %d" p)
  in
  let known_reviewer r =
    if Hashtbl.mem t.reviewers r then Ok ()
    else Error (Printf.sprintf "unknown reviewer %d" r)
  in
  let ( let* ) = Result.bind in
  match req with
  | Event.Paper_add { paper; vec } ->
      if Hashtbl.mem t.papers paper then
        Error (Printf.sprintf "paper %d already exists" paper)
      else
        let* () = check_vec t "paper" vec in
        if TV.mass vec <= 0. then Error "paper vector has zero mass"
        else Ok ()
  | Event.Paper_withdraw { paper } -> known_paper paper
  | Event.Reviewer_join { reviewer; vec } ->
      if Hashtbl.mem t.reviewers reviewer then
        Error (Printf.sprintf "reviewer %d already exists" reviewer)
      else check_vec t "reviewer" vec
  | Event.Reviewer_leave { reviewer } -> known_reviewer reviewer
  | Event.Coi_add { paper; reviewer } ->
      let* () = known_paper paper in
      let* () = known_reviewer reviewer in
      if Hashtbl.mem t.coi (paper, reviewer) then
        Error (Printf.sprintf "conflict (%d, %d) already registered" paper reviewer)
      else Ok ()
  | Event.Bid_update { paper; reviewer; weight = _ } ->
      let* () = known_paper paper in
      let* () = known_reviewer reviewer in
      if Hashtbl.mem t.coi (paper, reviewer) then
        Error
          (Printf.sprintf "pair (%d, %d) is a conflict of interest" paper
             reviewer)
      else Ok ()

(* {1 Planning} *)

(* Bid weights scale the reviewer's expertise vector for that one paper,
   biasing re-solves toward willing reviewers. [override] carries a
   not-yet-committed weight (planning runs before commit). *)
let weighted ?override t ~paper ~reviewer vec =
  let w =
    match override with
    | Some (r, w) when r = reviewer -> Some w
    | _ -> Hashtbl.find_opt t.bids (paper, reviewer)
  in
  match w with
  | None -> vec
  | Some w when Float.equal w 1. -> vec
  | Some w -> Array.map (fun x -> x *. w) vec

(* Selectable reviewers for [paper]: spare workload (adjusted by [adj],
   the plan-local capacity deltas), no conflict, not banned, not already
   a member. Ascending id order for determinism. *)
let candidates ?(adj = fun _ -> 0) ?(banned = []) ?(members = []) t ~paper =
  Hashtbl.fold
    (fun r vec acc ->
      if List.mem r banned || List.mem r members then acc
      else if Hashtbl.mem t.coi (paper, r) then acc
      else
        let spare = t.delta_r - workload_of t r + adj r in
        if spare > 0 then (r, vec) :: acc else acc)
    t.reviewers []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let weighted_group_score ?override t ~paper group =
  match group with
  | [] -> 0.
  | _ ->
      let pvec = Hashtbl.find t.papers paper in
      Scoring.group_score scoring
        (List.map
           (fun r ->
             weighted ?override t ~paper ~reviewer:r
               (Hashtbl.find t.reviewers r))
           group)
        pvec

(* Greedy hole-fill: extend [have] toward delta_p by descending marginal
   gain (ties to the lower reviewer id), polling the deadline between
   picks. The degraded backstop of every planning path. *)
let greedy_fill ?deadline ?override t ~paper ~pvec ~have cands =
  let gvec = ref (Scoring.empty_group ~dim:t.dim) in
  List.iter
    (fun r ->
      TV.extend_max_into ~dst:!gvec
        (weighted ?override t ~paper ~reviewer:r (Hashtbl.find t.reviewers r)))
    have;
  let picked = ref (List.rev have) in
  let n = ref (List.length have) in
  let remaining =
    ref
      (List.map
         (fun (r, v) -> (r, weighted ?override t ~paper ~reviewer:r v))
         cands)
  in
  let reasons = ref [] in
  (try
     while !n < t.delta_p && !remaining <> [] do
       Timer.check_opt deadline;
       let best =
         List.fold_left
           (fun acc (r, v) ->
             let g = Scoring.gain scoring ~group:!gvec v pvec in
             match acc with
             | Some (_, _, bg) when bg >= g -> acc
             | _ -> Some (r, v, g))
           None !remaining
       in
       match best with
       | None -> remaining := []
       | Some (r, v, _) ->
           picked := r :: !picked;
           incr n;
           gvec := TV.extend_max !gvec v;
           remaining := List.filter (fun (r', _) -> r' <> r) !remaining
     done
   with Timer.Expired ->
     reasons := [ Solver.Timeout { link = "serve-greedy" } ]);
  (List.sort compare !picked, !reasons)

(* The event planner's JRA chain: the ILP on half of the event budget,
   then, unless it proved its group optimal, {!Solver.jra} (BBA, then
   greedy) on the rest; the ILP's incumbent wins ties. Serve's pools are
   dense, and there BBA alone is faster but heavy-tailed (0.1 ms to past
   the 50 ms default budget), so throughput would swing with the stream
   and the host's load; DESIGN.md "Service mode" says why the ILP still
   leads here. *)
let plan_jra ?deadline problem =
  let half = Option.map (fun d -> Timer.deadline (0.5 *. Timer.remaining d)) deadline in
  let rest ilp incumbent =
    let better (sol : Jra.solution) =
      match incumbent with
      | Some (i : Jra.solution) when i.score >= sol.score -> i
      | _ -> sol
    in
    match Solver.jra ~ctx:(Ctx.make ?deadline ()) problem with
    | Solver.Complete sol -> Solver.Complete (better sol)
    | Solver.Degraded (sol, reasons) -> Solver.Degraded (better sol, ilp :: reasons)
    | Solver.Infeasible _ as none -> (
        match incumbent with Some i -> Solver.Degraded (i, [ ilp ]) | None -> none)
  in
  match Wgrap.Jra_ilp.solve ?deadline:half problem with
  | Wgrap.Jra_ilp.Solved sol -> Solver.Complete sol
  | Wgrap.Jra_ilp.Timed_out incumbent -> rest (Solver.Timeout { link = "jra-ilp" }) incumbent
  | exception e -> rest (Solver.Fault { link = "jra-ilp"; error = Solver.describe_exn e }) None

(* Full single-paper re-solve through {!plan_jra} when the candidate
   pool can fill a whole group; greedy partial fill when it cannot. *)
let solve_group ?deadline ?override t ~paper ~pvec cands =
  let scaled =
    List.map (fun (r, v) -> (r, weighted ?override t ~paper ~reviewer:r v)) cands
  in
  let n = List.length scaled in
  if n = 0 then ([], [])
  else if n >= t.delta_p then begin
    let problem =
      Jra.make ~scoring ~paper:pvec
        ~ids:(Array.of_list (List.map fst scaled))
        ~pool:(Array.of_list (List.map snd scaled))
        ~group_size:t.delta_p ()
    in
    match plan_jra ?deadline problem with
    | Solver.Complete sol -> (sol.Jra.group, [])
    | Solver.Degraded (sol, reasons) -> (sol.Jra.group, reasons)
    | Solver.Infeasible msg ->
        (* cannot happen with an exclusion-free pool >= group_size, but
           the chain's contract allows it; fall back rather than trust *)
        let g, rs = greedy_fill ?deadline ?override t ~paper ~pvec ~have:[] cands in
        (g, Solver.Fault { link = "serve-jra"; error = msg } :: rs)
  end
  else greedy_fill ?deadline ?override t ~paper ~pvec ~have:[] cands

type planned = { ops : Event.op list; reasons : Solver.reason list }

(* {2 Per-event planners} *)

(* The late-change planner, for a reviewer leaving (or being
   conflicted off a paper): keep the rest of each affected group and
   greedy-fill the hole under the bid weights, threading capacity
   deltas across papers via [adj]. *)
let refill_holes ?deadline t ~banned ~affected =
  let adj = Hashtbl.create 8 in
  let adj_of r = Option.value ~default:0 (Hashtbl.find_opt adj r) in
  let consume r = Hashtbl.replace adj r (adj_of r - 1) in
  let release r = Hashtbl.replace adj r (adj_of r + 1) in
  let ops, reasons =
    List.fold_left
      (fun (ops, reasons) paper ->
        let pvec = Hashtbl.find t.papers paper in
        let old = Hashtbl.find t.groups paper in
        let have = List.filter (fun r -> not (List.mem r banned)) old in
        List.iter (fun r -> if List.mem r banned then release r) old;
        let cands = candidates ~adj:adj_of ~banned ~members:have t ~paper in
        let g, rs = greedy_fill ?deadline t ~paper ~pvec ~have cands in
        List.iter (fun r -> if not (List.mem r old) then consume r) g;
        let ops = ops @ [ Event.Set_group { paper; group = g } ] in
        let ops =
          if List.length g < t.delta_p then ops @ [ Event.Pend paper ] else ops
        in
        (ops, reasons @ rs))
      ([], []) affected
  in
  { ops; reasons }

let affected_papers t r =
  List.sort compare
    (Hashtbl.fold
       (fun p g acc -> if List.mem r g then p :: acc else acc)
       t.groups [])

let plan ?deadline t (req : Event.req) =
  match req with
  | Event.Paper_add { paper; vec } ->
      let cands = candidates t ~paper in
      let group, reasons = solve_group ?deadline t ~paper ~pvec:vec cands in
      let ops = [ Event.Set_group { paper; group } ] in
      let ops =
        if List.length group < t.delta_p || reasons <> [] then
          ops @ [ Event.Pend paper ]
        else ops
      in
      { ops; reasons }
  | Event.Paper_withdraw _ | Event.Reviewer_join _ ->
      (* pure membership: withdrawing frees capacity and joining adds
         it; both are picked up by the idle improvement pass, which the
         server re-arms after every mutation *)
      { ops = []; reasons = [] }
  | Event.Reviewer_leave { reviewer } ->
      refill_holes ?deadline t ~banned:[ reviewer ]
        ~affected:(affected_papers t reviewer)
  | Event.Coi_add { paper; reviewer } ->
      (* the conflicted pair is not in [t.coi] yet; ban the reviewer
         explicitly for this paper's refill *)
      let affected =
        if List.mem reviewer (Hashtbl.find t.groups paper) then [ paper ] else []
      in
      refill_holes ?deadline t ~banned:[ reviewer ] ~affected
  | Event.Bid_update { paper; reviewer; weight } ->
      let override = (reviewer, weight) in
      let old = Hashtbl.find t.groups paper in
      let pvec = Hashtbl.find t.papers paper in
      let adj r = if List.mem r old then 1 else 0 in
      let cands = candidates ~adj t ~paper in
      let group, reasons = solve_group ?deadline ~override t ~paper ~pvec cands in
      let old_score = weighted_group_score ~override t ~paper old in
      let new_score = weighted_group_score ~override t ~paper group in
      (* keep the announced group unless the re-solve actually wins —
         minimal disruption is the service's promise *)
      let group, reasons =
        if List.length group > List.length old || new_score > old_score +. 1e-12
        then (group, reasons)
        else (old, reasons)
      in
      let ops = [ Event.Set_group { paper; group } ] in
      let short = List.length group < t.delta_p in
      let ops =
        if short || reasons <> [] then ops @ [ Event.Pend paper ]
        else if Hashtbl.mem t.pending paper then ops @ [ Event.Unpend paper ]
        else ops
      in
      { ops; reasons }

type improvement = Improved of Event.op list | Exhausted of int | Idle

let plan_improve ?deadline ~skip t =
  match List.filter (fun p -> not (skip p)) (pending t) with
  | [] -> Idle
  | paper :: _ -> (
      let pvec = Hashtbl.find t.papers paper in
      let old = Hashtbl.find t.groups paper in
      if List.length old < t.delta_p then begin
        (* short group: fill the hole from current spare capacity *)
        let cands = candidates ~members:old t ~paper in
        let g, _ = greedy_fill ?deadline t ~paper ~pvec ~have:old cands in
        if List.length g = List.length old then Exhausted paper
        else
          let ops = [ Event.Set_group { paper; group = g } ] in
          let ops =
            if List.length g >= t.delta_p then ops @ [ Event.Unpend paper ]
            else ops
          in
          Improved ops
      end
      else begin
        (* full but degraded: re-solve from scratch and keep the winner *)
        let adj r = if List.mem r old then 1 else 0 in
        let cands = candidates ~adj t ~paper in
        let g, reasons = solve_group ?deadline t ~paper ~pvec cands in
        let old_score = weighted_group_score t ~paper old in
        let new_score = weighted_group_score t ~paper g in
        let improved =
          List.length g >= List.length old && new_score > old_score +. 1e-12
        in
        match (improved, reasons) with
        | true, [] ->
            Improved [ Event.Set_group { paper; group = g }; Event.Unpend paper ]
        | true, _ -> Improved [ Event.Set_group { paper; group = g } ]
        | false, [] ->
            (* a complete re-solve could not beat the incumbent: the
               paper has reached its best and stops pending *)
            Improved [ Event.Unpend paper ]
        | false, _ -> Exhausted paper
      end)

(* {1 Commit} *)

exception Commit_error of string

let failc fmt = Printf.ksprintf (fun m -> raise (Commit_error m)) fmt

let purge_pairs tbl which id =
  let doomed =
    Hashtbl.fold
      (fun ((p, r) as k) _ acc ->
        if (which = `Paper && p = id) || (which = `Reviewer && r = id) then
          k :: acc
        else acc)
      tbl []
  in
  List.iter (Hashtbl.remove tbl) doomed

let apply_membership t (req : Event.req) =
  match req with
  | Event.Paper_add { paper; vec } ->
      if Hashtbl.mem t.papers paper then failc "duplicate paper %d" paper;
      Hashtbl.replace t.papers paper vec;
      Hashtbl.replace t.groups paper []
  | Event.Paper_withdraw { paper } ->
      (match Hashtbl.find_opt t.groups paper with
      | None -> failc "withdraw of unknown paper %d" paper
      | Some g ->
          List.iter
            (fun r -> Hashtbl.replace t.workload r (workload_of t r - 1))
            g);
      Hashtbl.remove t.papers paper;
      Hashtbl.remove t.groups paper;
      Hashtbl.remove t.pending paper;
      purge_pairs t.bids `Paper paper;
      purge_pairs t.coi `Paper paper
  | Event.Reviewer_join { reviewer; vec } ->
      if Hashtbl.mem t.reviewers reviewer then
        failc "duplicate reviewer %d" reviewer;
      Hashtbl.replace t.reviewers reviewer vec
  | Event.Reviewer_leave { reviewer } ->
      if not (Hashtbl.mem t.reviewers reviewer) then
        failc "leave of unknown reviewer %d" reviewer;
      Hashtbl.remove t.reviewers reviewer;
      Hashtbl.remove t.workload reviewer;
      purge_pairs t.bids `Reviewer reviewer;
      purge_pairs t.coi `Reviewer reviewer;
      (* strip the departed reviewer everywhere; the entry's ops then
         install the refilled groups on the affected papers *)
      Hashtbl.iter
        (fun p g ->
          if List.mem reviewer g then
            Hashtbl.replace t.groups p (List.filter (fun r -> r <> reviewer) g))
        (Hashtbl.copy t.groups)
  | Event.Coi_add { paper; reviewer } ->
      Hashtbl.replace t.coi (paper, reviewer) ()
  | Event.Bid_update { paper; reviewer; weight } ->
      Hashtbl.replace t.bids (paper, reviewer) weight

(* Ops re-check the hard constraints: a planner bug or corrupt journal
   must fail the commit, never break feasibility silently. *)
let apply_op t (op : Event.op) =
  match op with
  | Event.Set_group { paper; group } ->
      if not (Hashtbl.mem t.papers paper) then
        failc "set-group on unknown paper %d" paper;
      let group = List.sort compare group in
      let rec dups = function
        | a :: (b :: _ as rest) -> if a = b then true else dups rest
        | _ -> false
      in
      if dups group then failc "set-group with duplicate reviewer (paper %d)" paper;
      if List.length group > t.delta_p then
        failc "set-group above delta-p on paper %d" paper;
      List.iter
        (fun r ->
          if not (Hashtbl.mem t.reviewers r) then
            failc "set-group with unknown reviewer %d (paper %d)" r paper;
          if Hashtbl.mem t.coi (paper, r) then
            failc "set-group violates conflict (%d, %d)" paper r)
        group;
      let old = Hashtbl.find t.groups paper in
      List.iter (fun r -> Hashtbl.replace t.workload r (workload_of t r - 1)) old;
      List.iter
        (fun r ->
          let w = workload_of t r + 1 in
          if w > t.delta_r then
            failc "set-group overloads reviewer %d past delta-r" r;
          Hashtbl.replace t.workload r w)
        group;
      Hashtbl.replace t.groups paper group
  | Event.Pend p ->
      if not (Hashtbl.mem t.papers p) then failc "pend of unknown paper %d" p;
      Hashtbl.replace t.pending p ()
  | Event.Unpend p -> Hashtbl.remove t.pending p

let snapshot_of t =
  ( Hashtbl.copy t.papers,
    Hashtbl.copy t.reviewers,
    Hashtbl.copy t.coi,
    Hashtbl.copy t.bids,
    Hashtbl.copy t.groups,
    Hashtbl.copy t.workload,
    Hashtbl.copy t.pending,
    t.last_client,
    t.applied )

let restore t (p, r, c, b, g, w, pe, lc, ap) =
  let swap dst src =
    Hashtbl.reset dst;
    Hashtbl.iter (Hashtbl.replace dst) src
  in
  swap t.papers p;
  swap t.reviewers r;
  swap t.coi c;
  swap t.bids b;
  swap t.groups g;
  swap t.workload w;
  swap t.pending pe;
  t.last_client <- lc;
  t.applied <- ap

let commit t entry =
  let seq = Event.entry_seq entry in
  if seq <> t.applied + 1 then
    Error
      (Printf.sprintf "journal gap: entry seq %d after applied seq %d" seq
         t.applied)
  else begin
    let saved = snapshot_of t in
    try
      (match entry with
      | Event.Client { id; req; _ } ->
          if id <= t.last_client then
            failc "event id %d not above last accepted id %d" id t.last_client;
          apply_membership t req;
          t.last_client <- id
      | Event.Improve _ -> ());
      List.iter (apply_op t) (Event.entry_ops entry);
      t.applied <- seq;
      Ok ()
    with Commit_error m ->
      restore t saved;
      Error m
  end

(* {1 Snapshot codec} *)

let encode t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "wgrap-serve-state 1";
  line "config dim=%d delta-p=%d delta-r=%d" t.dim t.delta_p t.delta_r;
  line "cursor applied=%d last-client=%d" t.applied t.last_client;
  List.iter
    (fun p -> line "paper %d %s" p (Event.encode_vec (Hashtbl.find t.papers p)))
    (sorted_keys t.papers);
  List.iter
    (fun r ->
      line "reviewer %d %s" r (Event.encode_vec (Hashtbl.find t.reviewers r)))
    (sorted_keys t.reviewers);
  List.iter
    (fun (p, r) -> line "coi %d %d" p r)
    (List.sort compare (Hashtbl.fold (fun k () a -> k :: a) t.coi []));
  List.iter
    (fun (p, r) -> line "bid %d %d %h" p r (Hashtbl.find t.bids (p, r)))
    (List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) t.bids []));
  List.iter
    (fun p ->
      line "group %d %s" p
        (match Hashtbl.find t.groups p with
        | [] -> "-"
        | g -> String.concat "," (List.map string_of_int g)))
    (sorted_keys t.groups);
  List.iter (fun p -> line "pending %d" p) (pending t);
  Buffer.contents buf

let crc t = Crc32.hex (encode t)

(* Decode + self-certification: reject any image that a legal entry
   fold could not have produced. *)
let decode s =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error ("state image: " ^ m)) fmt in
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
  in
  match lines with
  | magic :: config :: cursor :: rest when magic = "wgrap-serve-state 1" -> (
      let header =
        try
          Scanf.sscanf config "config dim=%d delta-p=%d delta-r=%d"
            (fun dim dp dr ->
              Scanf.sscanf cursor "cursor applied=%d last-client=%d"
                (fun applied last_client ->
                  Some (dim, dp, dr, applied, last_client)))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
      in
      match header with
      | None -> fail "malformed config/cursor header"
      | Some (dim, dp, dr, applied, last_client) ->
              let* t = create ~dim ~delta_p:dp ~delta_r:dr () in
              if applied < 0 || last_client < -1 then fail "negative cursor"
              else begin
                t.applied <- applied;
                t.last_client <- last_client;
                let parse_line l =
                  match String.split_on_char ' ' l with
                  | [ "paper"; p; v ] -> (
                      match (int_of_string_opt p, Event.decode_vec v) with
                      | Some p, Ok vec when Array.length vec = dim ->
                          if Hashtbl.mem t.papers p then fail "duplicate paper %d" p
                          else begin
                            Hashtbl.replace t.papers p vec;
                            Ok ()
                          end
                      | _ -> fail "bad paper line %S" l)
                  | [ "reviewer"; r; v ] -> (
                      match (int_of_string_opt r, Event.decode_vec v) with
                      | Some r, Ok vec when Array.length vec = dim ->
                          if Hashtbl.mem t.reviewers r then
                            fail "duplicate reviewer %d" r
                          else begin
                            Hashtbl.replace t.reviewers r vec;
                            Ok ()
                          end
                      | _ -> fail "bad reviewer line %S" l)
                  | [ "coi"; p; r ] -> (
                      match (int_of_string_opt p, int_of_string_opt r) with
                      | Some p, Some r ->
                          Hashtbl.replace t.coi (p, r) ();
                          Ok ()
                      | _ -> fail "bad coi line %S" l)
                  | [ "bid"; p; r; w ] -> (
                      match
                        ( int_of_string_opt p,
                          int_of_string_opt r,
                          float_of_string_opt w )
                      with
                      | Some p, Some r, Some w when Float.is_finite w && w >= 0. ->
                          Hashtbl.replace t.bids (p, r) w;
                          Ok ()
                      | _ -> fail "bad bid line %S" l)
                  | [ "group"; p; ids ] -> (
                      match int_of_string_opt p with
                      | Some p ->
                          let* g =
                            if ids = "-" then Ok []
                            else
                              let parts = String.split_on_char ',' ids in
                              let rec go acc = function
                                | [] -> Ok (List.rev acc)
                                | x :: rest -> (
                                    match int_of_string_opt x with
                                    | Some r -> go (r :: acc) rest
                                    | None -> fail "bad group member %S" x)
                              in
                              go [] parts
                          in
                          if Hashtbl.mem t.groups p then
                            fail "duplicate group for paper %d" p
                          else begin
                            Hashtbl.replace t.groups p g;
                            Ok ()
                          end
                      | None -> fail "bad group line %S" l)
                  | [ "pending"; p ] -> (
                      match int_of_string_opt p with
                      | Some p ->
                          Hashtbl.replace t.pending p ();
                          Ok ()
                      | None -> fail "bad pending line %S" l)
                  | _ -> fail "unrecognized line %S" l
                in
                let rec feed = function
                  | [] -> Ok ()
                  | l :: rest ->
                      let* () = parse_line l in
                      feed rest
                in
                let* () = feed rest in
                (* certification: the image must satisfy every invariant
                   a legal commit fold maintains *)
                let* () =
                  Hashtbl.fold
                    (fun p _ acc ->
                      let* () = acc in
                      if not (Hashtbl.mem t.groups p) then
                        fail "paper %d has no group line" p
                      else Ok ())
                    t.papers (Ok ())
                in
                let* () =
                  Hashtbl.fold
                    (fun p g acc ->
                      let* () = acc in
                      if not (Hashtbl.mem t.papers p) then
                        fail "group for unknown paper %d" p
                      else if List.sort compare g <> g then
                        fail "group of paper %d not ascending" p
                      else if List.length g > dp then
                        fail "group of paper %d above delta-p" p
                      else
                        List.fold_left
                          (fun acc r ->
                            let* () = acc in
                            if not (Hashtbl.mem t.reviewers r) then
                              fail "group of paper %d uses unknown reviewer %d" p r
                            else if Hashtbl.mem t.coi (p, r) then
                              fail "group of paper %d violates conflict with %d" p r
                            else begin
                              Hashtbl.replace t.workload r (workload_of t r + 1);
                              Ok ()
                            end)
                          (Ok ()) g)
                    t.groups (Ok ())
                in
                let* () =
                  Hashtbl.fold
                    (fun r w acc ->
                      let* () = acc in
                      if w > dr then fail "reviewer %d above delta-r" r else Ok ())
                    t.workload (Ok ())
                in
                let* () =
                  Hashtbl.fold
                    (fun p () acc ->
                      let* () = acc in
                      if not (Hashtbl.mem t.papers p) then
                        fail "pending unknown paper %d" p
                      else Ok ())
                    t.pending (Ok ())
                in
                (* pair state is purged on withdraw/leave and only ever
                   admitted against live ids, so an orphaned coi/bid is
                   unreachable by any legal fold — and a stale conflict
                   smuggled in here would spring back to life if its
                   paper id were later re-added *)
                let* () =
                  Hashtbl.fold
                    (fun (p, r) () acc ->
                      let* () = acc in
                      if not (Hashtbl.mem t.papers p) then
                        fail "coi (%d, %d) references unknown paper" p r
                      else if not (Hashtbl.mem t.reviewers r) then
                        fail "coi (%d, %d) references unknown reviewer" p r
                      else Ok ())
                    t.coi (Ok ())
                in
                let* () =
                  Hashtbl.fold
                    (fun (p, r) _ acc ->
                      let* () = acc in
                      if not (Hashtbl.mem t.papers p) then
                        fail "bid (%d, %d) references unknown paper" p r
                      else if not (Hashtbl.mem t.reviewers r) then
                        fail "bid (%d, %d) references unknown reviewer" p r
                      else Ok ())
                    t.bids (Ok ())
                in
                Ok t
              end)
  | _ :: _ -> fail "bad magic line"
  | [] -> fail "empty image"
