(* The service-mode suite: protocol and journal codecs round-trip bit
   for bit, hostile input never crashes the loop, admission sheds under
   overload, the late-change refill survives adversarial late changes
   and repairs only the groups they broke,
   and — the headline property — a kill at any point followed by
   [--resume] replays to a state byte-identical to a fresh fold over
   the acknowledged journal prefix, across ≥60 random seeds with chaos
   faults thrown at the stream and the files. *)

module Rng = Wgrap_util.Rng
module Event = Wgrap_serve.Event
module State = Wgrap_serve.State
module Admission = Wgrap_serve.Admission
module Durable = Wgrap_serve.Durable
module Server = Wgrap_serve.Server

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "wgrap_serve_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let get_ok ~msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" msg e

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec scan i = i + lb <= ls && (String.sub s i lb = sub || scan (i + 1)) in
  scan 0

(* {1 Protocol codec} *)

let test_parse_ok () =
  let p line =
    get_ok ~msg:("parse " ^ line) (Event.parse ~dim:3 line)
  in
  (match (p "7 paper-add 4 0.5,0.25,0.25").Event.request with
  | Event.Mutate (Event.Paper_add { paper = 4; vec }) ->
      Alcotest.(check int) "vec len" 3 (Array.length vec);
      Alcotest.(check bool) "vec head" true (Float.equal vec.(0) 0.5)
  | _ -> Alcotest.fail "paper-add shape");
  (match (p "8 coi-add 4 2").Event.request with
  | Event.Mutate (Event.Coi_add { paper = 4; reviewer = 2 }) -> ()
  | _ -> Alcotest.fail "coi-add shape");
  (match (p "9 query 4").Event.request with
  | Event.Read (Event.Query 4) -> ()
  | _ -> Alcotest.fail "query shape");
  (match (p "10 health").Event.request with
  | Event.Read Event.Health -> ()
  | _ -> Alcotest.fail "health shape");
  let hex = p "11 bid-update 4 2 0x1.8p0" in
  match hex.Event.request with
  | Event.Mutate (Event.Bid_update { weight; _ }) ->
      Alcotest.(check bool) "hex weight" true (Float.equal weight 1.5)
  | _ -> Alcotest.fail "bid-update shape"

let test_parse_rejects () =
  let bad line =
    match Event.parse ~dim:3 line with
    | Ok _ -> Alcotest.failf "accepted hostile line: %S" line
    | Error _ -> ()
  in
  bad "";
  bad "paper-add 1 0.5,0.25,0.25";
  bad "-3 health";
  bad "1 paper-nuke 4";
  bad "1 paper-add 4";
  bad "1 paper-add 4 0.5,0.5";
  bad "1 paper-add 4 0.5,0.25,0.25,0.1";
  bad "1 paper-add 4 0.5,,0.25";
  bad "1  paper-add 4 0.5,0.25,0.25";
  bad "1 paper-add 4 0.5,nan,0.25";
  bad "1 paper-add 4 0.5,inf,0.25";
  bad "1 bid-update 4 2 -1.0";
  bad "1 coi-add 4 two";
  bad "1 query";
  bad "99999999999999999999 health"

let test_request_id () =
  Alcotest.(check string) "id" "41" (Event.request_id "41 paper-nuke x");
  Alcotest.(check string) "no id" "-" (Event.request_id "garbage line");
  Alcotest.(check string) "empty" "-" (Event.request_id "")

let test_entry_roundtrip () =
  let third = 0.1 +. (1. /. 3.) in
  let entries =
    [
      Event.Client
        {
          seq = 1;
          id = 7;
          req = Event.Paper_add { paper = 4; vec = [| third; 0.25; 0.25 |] };
          ops =
            [
              Event.Set_group { paper = 4; group = [ 0; 2; 5 ] };
              Event.Pend 4;
            ];
        };
      Event.Client
        {
          seq = 2;
          id = 9;
          req = Event.Bid_update { paper = 4; reviewer = 2; weight = third };
          ops = [];
        };
      Event.Client
        { seq = 3; id = 10; req = Event.Reviewer_leave { reviewer = 2 }; ops = [ Event.Unpend 4 ] };
      Event.Improve { seq = 4; ops = [ Event.Set_group { paper = 4; group = [] } ] };
    ]
  in
  List.iter
    (fun entry ->
      let encoded = Event.encode_entry entry in
      Alcotest.(check bool) "single line" false (String.contains encoded '\n');
      let decoded = get_ok ~msg:"decode_entry" (Event.decode_entry encoded) in
      Alcotest.(check string) "re-encode fixpoint" encoded
        (Event.encode_entry decoded))
    entries

let test_vec_roundtrip () =
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    let vec = Array.init (1 + Rng.int rng 8) (fun _ -> Rng.uniform rng) in
    let back = get_ok ~msg:"decode_vec" (Event.decode_vec (Event.encode_vec vec)) in
    Alcotest.(check bool) "bit-exact vec" true
      (Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) vec back)
  done

(* {1 State helpers} *)

let apply_req st ~id req =
  match State.validate_req st req with
  | Error _ as e -> e
  | Ok () ->
      let planned = State.plan st req in
      State.commit st
        (Event.Client
           { seq = State.applied st + 1; id; req; ops = planned.State.ops })

let must_apply st ~id req =
  get_ok ~msg:(Printf.sprintf "apply %s (id %d)" (Event.verb req) id)
    (apply_req st ~id req)

let certify st =
  let image = State.encode st in
  let back = get_ok ~msg:"state certification" (State.decode image) in
  Alcotest.(check string) "decode/encode fixpoint" image (State.encode back)

let fresh_vec rng ~dim =
  Array.init dim (fun _ -> 0.05 +. Rng.uniform rng)

(* A small live conference: [n_r] reviewers then [n_p] papers. *)
let populated rng ~dim ~delta_p ~delta_r ~n_r ~n_p =
  let st = get_ok ~msg:"create" (State.create ~dim ~delta_p ~delta_r ()) in
  let id = ref 0 in
  for r = 0 to n_r - 1 do
    incr id;
    must_apply st ~id:!id (Event.Reviewer_join { reviewer = r; vec = fresh_vec rng ~dim })
  done;
  for p = 0 to n_p - 1 do
    incr id;
    must_apply st ~id:!id (Event.Paper_add { paper = p; vec = fresh_vec rng ~dim })
  done;
  (st, id)

(* {1 Arrival planning} *)

let planned_group (planned : State.planned) =
  List.find_map
    (function Event.Set_group { group; _ } -> Some group | _ -> None)
    planned.State.ops

(* Without a deadline a paper-add gets the best group over every
   reviewer with spare capacity; brute force over the pairs is the
   oracle. *)
let test_arrival_plan_exact () =
  let rng = Rng.create 2015 in
  let dim = 4 and n_r = 7 in
  let revs = Array.init n_r (fun _ -> fresh_vec rng ~dim) in
  let st = get_ok ~msg:"create" (State.create ~dim ~delta_p:2 ~delta_r:5 ()) in
  Array.iteri
    (fun r vec -> must_apply st ~id:(r + 1) (Event.Reviewer_join { reviewer = r; vec }))
    revs;
  let pvec = fresh_vec rng ~dim in
  let planned = State.plan st (Event.Paper_add { paper = 0; vec = pvec }) in
  Alcotest.(check int) "no reasons" 0 (List.length planned.State.reasons);
  let score g =
    Wgrap.Scoring.group_score Wgrap.Scoring.Weighted_coverage
      (List.map (fun r -> revs.(r)) g) pvec
  in
  let best = ref neg_infinity in
  for a = 0 to n_r - 1 do
    for b = a + 1 to n_r - 1 do
      best := Float.max !best (score [ a; b ])
    done
  done;
  match planned_group planned with
  | Some g ->
      Alcotest.(check int) "full group" 2 (List.length g);
      Alcotest.(check (float 1e-12)) "optimal" !best (score g)
  | None -> Alcotest.fail "no Set_group op"

(* An expired budget still yields a full group, marked pending, and the
   first reason names the ILP, which leads the arrival plan. *)
let test_arrival_plan_expired () =
  let rng = Rng.create 7 in
  let st, _ = populated rng ~dim:4 ~delta_p:2 ~delta_r:5 ~n_r:7 ~n_p:0 in
  let deadline = Wgrap_util.Timer.deadline 0. in
  let planned =
    State.plan ~deadline st (Event.Paper_add { paper = 0; vec = fresh_vec rng ~dim:4 })
  in
  (match planned.State.reasons with
  | Wgrap.Solver.Timeout { link = "jra-ilp" } :: _ -> ()
  | rs ->
      Alcotest.failf "reasons: [%s]"
        (String.concat "; " (List.map Wgrap.Solver.describe_reason rs)));
  Alcotest.(check (option int)) "full group" (Some 2)
    (Option.map List.length (planned_group planned));
  Alcotest.(check bool) "pending" true
    (List.mem (Event.Pend 0) planned.State.ops)

(* {1 Late-change adversarial properties} *)

(* A conflict surfacing on an already-assigned pair must evict the
   reviewer from that paper's group and leave a certified state. *)
let amend_coi_on_assigned_test =
  QCheck.Test.make ~name:"late COI on assigned pair evicts reviewer" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let st, id = populated rng ~dim:3 ~delta_p:2 ~delta_r:3 ~n_r:5 ~n_p:4 in
      let victim =
        List.find_map
          (fun p ->
            match State.group st p with
            | Some (r :: _) -> Some (p, r)
            | _ -> None)
          [ 0; 1; 2; 3 ]
      in
      match victim with
      | None -> QCheck.Test.fail_report "no assigned pair to conflict"
      | Some (paper, reviewer) ->
          incr id;
          must_apply st ~id:!id (Event.Coi_add { paper; reviewer });
          let group = Option.value ~default:[] (State.group st paper) in
          if List.mem reviewer group then
            QCheck.Test.fail_reportf "reviewer %d still assigned to paper %d"
              reviewer paper;
          certify st;
          true)

(* A reviewer leaving a capacity-tight instance (total slots = total
   workload) must vanish from every group; the shortfall is pended, not
   papered over with an infeasible assignment. *)
let amend_leave_at_capacity_test =
  QCheck.Test.make ~name:"reviewer leave at capacity stays feasible" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* 4 papers x delta_p 2 = 8 slots = 4 reviewers x delta_r 2. *)
      let st, id = populated rng ~dim:3 ~delta_p:2 ~delta_r:2 ~n_r:4 ~n_p:4 in
      let leaver = Rng.int rng 4 in
      incr id;
      must_apply st ~id:!id (Event.Reviewer_leave { reviewer = leaver });
      List.iter
        (fun p ->
          let group = Option.value ~default:[] (State.group st p) in
          if List.mem leaver group then
            QCheck.Test.fail_reportf "departed reviewer %d still in paper %d"
              leaver p)
        [ 0; 1; 2; 3 ];
      certify st;
      true)

(* Withdrawing a pending paper mid-improvement: subsequent improvement
   passes must never emit ops for the dead paper, and must terminate. *)
let amend_withdraw_mid_improvement_test =
  QCheck.Test.make ~name:"withdraw mid-improvement never resurrects" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* One reviewer, delta_p 3: every paper-add comes up short and is
         marked pending. *)
      let st, id = populated rng ~dim:3 ~delta_p:3 ~delta_r:8 ~n_r:1 ~n_p:3 in
      let pending0 = State.pending st in
      if pending0 = [] then QCheck.Test.fail_report "expected pending papers";
      let dead = List.nth pending0 (Rng.int rng (List.length pending0)) in
      incr id;
      must_apply st ~id:!id (Event.Paper_withdraw { paper = dead });
      (* Give the improver spare capacity to chew on. *)
      for r = 1 to 2 do
        incr id;
        must_apply st ~id:!id
          (Event.Reviewer_join { reviewer = r; vec = fresh_vec rng ~dim:3 })
      done;
      let skipped = Hashtbl.create 8 in
      let budget = ref 32 in
      let continue = ref true in
      while !continue && !budget > 0 do
        decr budget;
        match State.plan_improve ~skip:(Hashtbl.mem skipped) st with
        | State.Idle -> continue := false
        | State.Exhausted p -> Hashtbl.replace skipped p ()
        | State.Improved ops ->
            List.iter
              (fun op ->
                let p =
                  match op with
                  | Event.Set_group { paper; _ } -> paper
                  | Event.Pend p | Event.Unpend p -> p
                in
                if p = dead then
                  QCheck.Test.fail_reportf
                    "improvement touched withdrawn paper %d" dead)
              ops;
            get_ok ~msg:"commit improve"
              (State.commit st
                 (Event.Improve { seq = State.applied st + 1; ops }))
      done;
      if !budget = 0 then
        QCheck.Test.fail_report "improvement loop failed to terminate";
      certify st;
      true)

(* The late-change planner repairs only what the change broke: its
   [Set_group] ops name exactly the papers whose group held the
   reviewer, every other group stays as announced, the reviewer ends up
   holding none of those papers, and the state certifies. Bids and a
   random capacity make some states pending and some committees tight. *)
let late_change_property ~name ~leave =
  QCheck.Test.make ~name ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_r = 3 + Rng.int rng 4 and n_p = 3 + Rng.int rng 4 in
      let st, id =
        populated rng ~dim:3 ~delta_p:2 ~delta_r:(1 + Rng.int rng 3) ~n_r ~n_p
      in
      for _ = 1 to Rng.int rng 4 do
        let req =
          Event.Bid_update
            {
              paper = Rng.int rng n_p;
              reviewer = Rng.int rng n_r;
              weight = 2. *. Rng.uniform rng;
            }
        in
        incr id;
        ignore (apply_req st ~id:!id req : (unit, string) result)
      done;
      let groups () =
        List.init n_p (fun p -> Option.value ~default:[] (State.group st p))
      in
      let held =
        List.filter (fun (_, g) -> g <> []) (List.mapi (fun p g -> (p, g)) (groups ()))
      in
      match held with
      | [] -> QCheck.assume_fail ()
      | _ ->
          let paper, g = List.nth held (Rng.int rng (List.length held)) in
          let reviewer = List.nth g (Rng.int rng (List.length g)) in
          let req =
            if leave then Event.Reviewer_leave { reviewer }
            else Event.Coi_add { paper; reviewer }
          in
          let before = groups () in
          let holders =
            List.filter
              (fun p ->
                List.mem reviewer (List.nth before p) && (leave || p = paper))
              (List.init n_p Fun.id)
          in
          let planned = State.plan st req in
          let touched =
            List.filter_map
              (function Event.Set_group { paper; _ } -> Some paper | _ -> None)
              planned.State.ops
          in
          if List.sort compare touched <> holders then
            QCheck.Test.fail_reportf "ops touch papers [%s], holders are [%s]"
              (String.concat "," (List.map string_of_int touched))
              (String.concat "," (List.map string_of_int holders));
          incr id;
          get_ok ~msg:"commit late change"
            (State.commit st
               (Event.Client
                  {
                    seq = State.applied st + 1;
                    id = !id;
                    req;
                    ops = planned.State.ops;
                  }));
          List.iteri
            (fun p g ->
              if List.mem p holders then begin
                if List.mem reviewer g then
                  QCheck.Test.fail_reportf "reviewer %d still holds paper %d"
                    reviewer p
              end
              else if g <> List.nth before p then
                QCheck.Test.fail_reportf "untouched paper %d changed group" p)
            (groups ());
          certify st;
          true)

let leave_touches_holders_test =
  late_change_property ~name:"withdraw reviewer" ~leave:true

let coi_touches_holder_test = late_change_property ~name:"late coi" ~leave:false

(* {1 Hostile input at the server boundary} *)

let volatile_server ?(dim = 3) () =
  let config = Server.default ~dim ~delta_p:2 ~delta_r:3 in
  get_ok ~msg:"server create" (Server.create config)

let test_id_guards () =
  let t = volatile_server () in
  let ok l = Alcotest.(check bool) ("accepted: " ^ l) true
      (has_prefix ~prefix:"ok " (Server.handle_line t l))
  and err l = Alcotest.(check bool) ("rejected: " ^ l) true
      (has_prefix ~prefix:"err " (Server.handle_line t l)) in
  ok "5 reviewer-join 0 0.5,0.3,0.2";
  err "5 reviewer-join 1 0.5,0.3,0.2";
  err "4 reviewer-join 1 0.5,0.3,0.2";
  ok "6 reviewer-join 1 0.5,0.3,0.2";
  (* reads are not mutations: a stale id is fine on a query *)
  ok "2 health"

let test_semantic_rejections () =
  let t = volatile_server () in
  let err l = Alcotest.(check bool) ("rejected: " ^ l) true
      (has_prefix ~prefix:"err " (Server.handle_line t l)) in
  ignore (Server.handle_line t "1 reviewer-join 0 0.5,0.3,0.2");
  ignore (Server.handle_line t "2 paper-add 0 0.5,0.3,0.2");
  err "3 paper-add 0 0.5,0.3,0.2";
  err "4 reviewer-join 0 0.5,0.3,0.2";
  err "5 paper-withdraw 9";
  err "6 reviewer-leave 9";
  err "7 coi-add 0 9";
  err "8 bid-update 9 0 1.5";
  (* a COI'd pair refuses a bid *)
  ignore (Server.handle_line t "9 coi-add 0 0");
  err "10 bid-update 0 0 1.5"

let test_reads () =
  let t = volatile_server () in
  ignore (Server.handle_line t "1 reviewer-join 0 0.5,0.3,0.2");
  ignore (Server.handle_line t "2 reviewer-join 1 0.4,0.4,0.2");
  ignore (Server.handle_line t "3 paper-add 0 0.5,0.3,0.2");
  let q = Server.handle_line t "4 query 0" in
  Alcotest.(check bool) "query ok" true (has_prefix ~prefix:"ok 4 paper=0" q);
  Alcotest.(check bool) "query group" true (contains ~sub:"group=" q);
  let h = Server.handle_line t "5 health" in
  Alcotest.(check bool) "health ok" true (has_prefix ~prefix:"ok 5 health=" h);
  Alcotest.(check bool) "volatile journal" true (contains ~sub:"journal=none" h);
  let s = Server.handle_line t "6 stats" in
  Alcotest.(check bool) "stats ok" true (has_prefix ~prefix:"ok 6 stats" s);
  Alcotest.(check bool) "stats accepted" true
    (contains ~sub:{|"accepted": 3|} s);
  Alcotest.(check bool) "stats objective" true
    (contains ~sub:{|"objective"|} s);
  Alcotest.(check bool) "stats fairness" true (contains ~sub:{|"gini"|} s);
  Alcotest.(check bool) "stats single line" true
    (not (String.contains s '\n'));
  let miss = Server.handle_line t "7 query 42" in
  Alcotest.(check bool) "unknown paper is err" true (has_prefix ~prefix:"err " miss)

(* An over-subscribed committee (6 slots, 4 of capacity) still gets the
   full report, not counters only. *)
let test_stats_oversubscribed () =
  let t =
    get_ok ~msg:"server create"
      (Server.create (Server.default ~dim:2 ~delta_p:2 ~delta_r:2))
  in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("accepted: " ^ l) true
        (has_prefix ~prefix:"ok " (Server.handle_line t l)))
    [
      "1 reviewer-join 0 0.6,0.4";
      "2 reviewer-join 1 0.3,0.7";
      "3 paper-add 0 0.5,0.5";
      "4 paper-add 1 0.9,0.1";
      "5 paper-add 2 0.2,0.8";
    ];
  (match State.summary (Server.state t) with
  | Some s -> Alcotest.(check int) "summary papers" 3 s.Wgrap.Summary.n_papers
  | None -> Alcotest.fail "no summary for an over-subscribed committee");
  let stats = Server.handle_line t "6 stats" in
  Alcotest.(check bool) "stats carries the coverage mean" true
    (contains ~sub:{|"coverage": {"total": |} stats
    && contains ~sub:{|, "mean": |} stats)

(* A late conflict gets one answer whatever else is pending: the bid on
   reviewer 2 steers paper 10's refill, with or without paper 11 (which
   no reviewer can cover, so it stays pending). *)
let test_late_change_one_answer () =
  let group_of ~with_pending =
    let t =
      get_ok ~msg:"server create"
        (Server.create (Server.default ~dim:2 ~delta_p:1 ~delta_r:1))
    in
    let lines =
      (if with_pending then [ "0 paper-add 11 0,1" ] else [])
      @ [
          "1 reviewer-join 0 1,0";
          "2 reviewer-join 1 0.9,0";
          "3 reviewer-join 2 0.8,0";
          "4 reviewer-join 3 0.1,0";
          "5 paper-add 10 1,0";
          "6 bid-update 10 2 2";
          "7 coi-add 10 0";
        ]
    in
    List.iter
      (fun l ->
        Alcotest.(check bool) ("accepted: " ^ l) true
          (has_prefix ~prefix:"ok " (Server.handle_line t l)))
      lines;
    Alcotest.(check bool) "query answers the refilled group" true
      (contains ~sub:"group=2" (Server.handle_line t "8 query 10"));
    State.group (Server.state t) 10
  in
  Alcotest.(check (option (list int))) "nothing pending" (Some [ 2 ])
    (group_of ~with_pending:false);
  Alcotest.(check (option (list int))) "paper 11 pending" (Some [ 2 ])
    (group_of ~with_pending:true)

(* Any chaos-corrupted client stream: every line gets exactly one
   response, nothing raises, and the surviving state still certifies. *)
let hostile_stream_test =
  QCheck.Test.make ~name:"corrupted client streams never crash the server"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let streams = Rng.split (Rng.create seed) 3 in
      let gen_rng = streams.(0)
      and fault_rng = streams.(1)
      and chaos_rng = streams.(2) in
      let dim = 3 in
      let lines = ref [] in
      let emit = ref 0 in
      for _ = 1 to 25 do
        incr emit;
        let body =
          match Rng.int gen_rng 5 with
          | 0 ->
              Printf.sprintf "reviewer-join %d %s" (Rng.int gen_rng 6)
                (Event.encode_vec (fresh_vec gen_rng ~dim))
          | 1 ->
              Printf.sprintf "paper-add %d %s" (Rng.int gen_rng 6)
                (Event.encode_vec (fresh_vec gen_rng ~dim))
          | 2 -> Printf.sprintf "coi-add %d %d" (Rng.int gen_rng 6) (Rng.int gen_rng 6)
          | 3 -> Printf.sprintf "query %d" (Rng.int gen_rng 6)
          | _ ->
              Printf.sprintf "bid-update %d %d %.3f" (Rng.int gen_rng 6)
                (Rng.int gen_rng 6)
                (Rng.uniform gen_rng *. 2.)
        in
        lines := Printf.sprintf "%d %s" !emit body :: !lines
      done;
      let faults =
        List.filter
          (fun _ -> Rng.bool fault_rng)
          Chaos.event_faults
      in
      let lines =
        Chaos.corrupt_event_stream ~rng:chaos_rng ~faults (List.rev !lines)
      in
      let t = volatile_server ~dim () in
      List.iter
        (fun line ->
          let resp = Server.handle_line t line in
          if
            not
              (has_prefix ~prefix:"ok " resp
              || has_prefix ~prefix:"err " resp)
          then
            QCheck.Test.fail_reportf "unexpected response %S to %S" resp line)
        lines;
      certify (Server.state t);
      true)

(* {1 Admission control} *)

let test_admission_queue_bound () =
  let a = Admission.create ~max_queue:4 ~p99_limit_ms:1000. () in
  (match Admission.decide a ~depth:0 with
  | Admission.Admit -> ()
  | Admission.Shed _ -> Alcotest.fail "empty queue shed");
  (match Admission.decide a ~depth:4 with
  | Admission.Shed ms ->
      Alcotest.(check bool) "retry-after positive" true (ms > 0)
  | Admission.Admit -> Alcotest.fail "full queue admitted");
  Alcotest.(check int) "shed counted" 1 (Admission.shed_count a)

let test_admission_latency_trip () =
  let a = Admission.create ~window:64 ~max_queue:8 ~p99_limit_ms:10. () in
  for _ = 1 to 64 do
    Admission.observe a 50.
  done;
  Alcotest.(check bool) "p99 sees the latencies" true (Admission.p99_ms a > 10.);
  (match Admission.decide a ~depth:4 with
  | Admission.Shed _ -> ()
  | Admission.Admit -> Alcotest.fail "tripped latency with half queue admitted");
  match Admission.decide a ~depth:0 with
  | Admission.Admit -> ()
  | Admission.Shed _ -> Alcotest.fail "empty queue shed despite latency"

(* {1 The event loop over a pipe} *)

let run_session ?(config_of = fun c -> c) ~dir lines =
  let config =
    config_of (Server.default ~dim:3 ~delta_p:2 ~delta_r:3)
  in
  let durable = get_ok ~msg:"durable open" (Durable.open_ ~dir) in
  let t = get_ok ~msg:"server create" (Server.create ~durable config) in
  let r, w = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr w in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc)
      ()
  in
  let out_path = Filename.concat dir "responses.txt" in
  let oc = open_out out_path in
  let result =
    Fun.protect
      ~finally:(fun () ->
        close_out oc;
        Unix.close r;
        Thread.join writer;
        Durable.close durable)
      (fun () -> Server.run t ~input:r ~output:oc)
  in
  get_ok ~msg:"run" result;
  let responses =
    In_channel.with_open_text out_path In_channel.input_lines
  in
  (config, responses)

let test_run_loop_and_verify () =
  with_dir (fun dir ->
      let lines =
        [
          "1 reviewer-join 0 0.5,0.3,0.2";
          "2 reviewer-join 1 0.2,0.5,0.3";
          "3 reviewer-join 2 0.3,0.2,0.5";
          "4 paper-add 0 0.6,0.2,0.2";
          "5 paper-add 1 0.1,0.8,0.1";
          "6 query 0";
          "7 coi-add 0 0";
          "not a protocol line";
          "8 bid-update 1 2 1.5";
          "9 stats";
        ]
      in
      let config, responses = run_session ~dir lines in
      Alcotest.(check int) "one response per line" (List.length lines)
        (List.length responses);
      List.iteri
        (fun i resp ->
          let expect = if i = 7 then "err " else "ok " in
          Alcotest.(check bool)
            (Printf.sprintf "response %d prefix" i)
            true
            (has_prefix ~prefix:expect resp))
        responses;
      (* the rejected raw line is quarantined with its line number *)
      let quarantined =
        In_channel.with_open_text (Durable.quarantine_path dir)
          In_channel.input_lines
      in
      Alcotest.(check bool) "quarantine has the hostile line" true
        (List.exists (fun l -> contains ~sub:"line=8" l) quarantined);
      let report = get_ok ~msg:"verify" (Server.verify config ~dir) in
      Alcotest.(check bool) "verify reports entries" true
        (contains ~sub:"entries=" report))

let test_run_loop_oversized () =
  with_dir (fun dir ->
      let monster = "1 paper-add 0 " ^ String.make 300 '9' in
      let _, responses =
        run_session
          ~config_of:(fun c -> { c with Server.max_line = 64 })
          ~dir
          [ monster; "2 health" ]
      in
      match responses with
      | [ first; second ] ->
          Alcotest.(check bool) "oversized rejected" true
            (has_prefix ~prefix:"err " first);
          Alcotest.(check bool) "loop survives" true
            (has_prefix ~prefix:"ok 2 health=" second)
      | _ ->
          Alcotest.failf "expected 2 responses, got %d" (List.length responses))

(* A client that disconnects before reading its responses must not kill
   the service (SIGPIPE/EPIPE): the session ends, journaled events stay
   durable, and the next socket client is served against the same
   state. Regression for the socket-mode crash found while driving the
   CLI by hand. *)
let test_socket_client_disconnect () =
  with_dir (fun dir ->
      let path = Filename.concat dir "s.sock" in
      let durable = get_ok ~msg:"durable open" (Durable.open_ ~dir) in
      let t =
        get_ok ~msg:"server create"
          (Server.create ~durable (Server.default ~dim:3 ~delta_p:2 ~delta_r:3))
      in
      let connect () =
        let attempts = 50 in
        let rec go n =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> fd
          | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
            when n < attempts ->
              Unix.close fd;
              Thread.delay 0.02;
              go (n + 1)
        in
        go 0
      in
      let second_client_saw = ref [] in
      let client =
        Thread.create
          (fun () ->
            (* client 1: one acked event, then a second event followed by
               an abrupt close without reading its response *)
            let fd = connect () in
            let ic = Unix.in_channel_of_descr fd in
            let send s =
              ignore (Unix.write_substring fd (s ^ "\n") 0 (String.length s + 1))
            in
            send "1 reviewer-join 0 0.5,0.3,0.2";
            ignore (input_line ic : string);
            send "2 paper-add 0 0.6,0.2,0.2";
            Unix.close fd;
            (* client 2: the service must still answer, with client 1's
               journaled events visible *)
            let fd = connect () in
            let ic = Unix.in_channel_of_descr fd in
            let send s =
              ignore (Unix.write_substring fd (s ^ "\n") 0 (String.length s + 1))
            in
            send "3 health";
            second_client_saw := [ input_line ic ];
            send "4 stats";
            second_client_saw := !second_client_saw @ [ input_line ic ];
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            (try while true do ignore (input_line ic : string) done
             with End_of_file -> ());
            Unix.close fd)
          ()
      in
      let r =
        Fun.protect
          ~finally:(fun () ->
            Thread.join client;
            Durable.close durable)
          (fun () -> Server.serve_socket ~max_clients:2 t ~path)
      in
      get_ok ~msg:"serve_socket" r;
      (match !second_client_saw with
      | [ health; stats ] ->
          Alcotest.(check bool) "health ok" true
            (has_prefix ~prefix:"ok 3 health=ok" health);
          Alcotest.(check bool) "no supervisor restart burned" true
            (contains ~sub:"restarts=0" health);
          Alcotest.(check bool) "stats ok" true
            (has_prefix ~prefix:"ok 4 stats" stats);
          Alcotest.(check bool) "client 1's events survived" true
            (contains ~sub:{|"seq": 2|} stats)
      | l -> Alcotest.failf "second client saw %d responses" (List.length l));
      (* both of client 1's events — including the never-acked one — are
         either journaled or dropped; whatever was journaled must verify *)
      let report =
        get_ok ~msg:"verify"
          (Server.verify (Server.default ~dim:3 ~delta_p:2 ~delta_r:3) ~dir)
      in
      Alcotest.(check bool) "state verifies after disconnect" true
        (has_prefix ~prefix:"verify: ok" report))

(* {1 Durability: torn tails, poisoned journals, lost prefixes} *)

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let serve_cfg () = Server.default ~dim:3 ~delta_p:2 ~delta_r:3

(* The acked-events-are-durable regression: a torn tail must be
   physically cut before the writer reopens. Without the cut, records
   fsynced-and-acked after a --resume sit behind a record replay
   refuses, and silently vanish on the *next* restart. *)
let test_torn_tail_physically_truncated () =
  with_dir (fun dir ->
      let d = get_ok ~msg:"open" (Durable.open_ ~dir) in
      get_ok ~msg:"append one" (Durable.append d "one");
      get_ok ~msg:"append two" (Durable.append d "two");
      Durable.close d;
      (* kill -9 mid-append: a partial record, no trailing newline *)
      append_bytes (Durable.journal_path dir) "deadbeef\thalf-a-rec";
      let d2 = get_ok ~msg:"reopen" (Durable.open_ ~dir) in
      get_ok ~msg:"append three" (Durable.append d2 "three");
      Durable.close d2;
      let loaded = Durable.load ~dir in
      Alcotest.(check (list string))
        "events acked after the tear survive the next replay"
        [ "one"; "two"; "three" ] loaded.Durable.records;
      Alcotest.(check bool) "journal is whole again" false loaded.Durable.torn;
      Alcotest.(check bool) "cut bytes kept for the operator" true
        (Sys.file_exists (Durable.torn_tail_path dir)))

(* A tail that lost only its final newline still checksums — but the
   newline is part of what append fsyncs before the ack, so the record
   was never acknowledged, and appending after it would merge two
   records into one corrupt line. *)
let test_unterminated_tail_is_torn () =
  with_dir (fun dir ->
      let d = get_ok ~msg:"open" (Durable.open_ ~dir) in
      get_ok ~msg:"append one" (Durable.append d "one");
      Durable.close d;
      append_bytes (Durable.journal_path dir)
        (Wgrap_persist.Crc32.hex "two" ^ "\ttwo");
      let loaded = Durable.load ~dir in
      Alcotest.(check (list string)) "unterminated record not trusted"
        [ "one" ] loaded.Durable.records;
      Alcotest.(check bool) "flagged torn" true loaded.Durable.torn;
      let d2 = get_ok ~msg:"reopen" (Durable.open_ ~dir) in
      get_ok ~msg:"append three" (Durable.append d2 "three");
      Durable.close d2;
      Alcotest.(check (list string)) "no record merge after the cut"
        [ "one"; "three" ] (Durable.load ~dir).Durable.records)

(* A CRC-valid record the fold cannot decode poisons the journal:
   records behind it are unreachable by every replay, so resuming (and
   appending colliding seqs after it) must be refused, not papered
   over. *)
let test_resume_refuses_poisoned_journal () =
  with_dir (fun dir ->
      let config = serve_cfg () in
      let d = get_ok ~msg:"open" (Durable.open_ ~dir) in
      let t = get_ok ~msg:"create" (Server.create ~durable:d config) in
      ignore (Server.handle_line t "1 reviewer-join 0 0.5,0.3,0.2" : string);
      ignore (Server.handle_line t "2 paper-add 0 0.6,0.2,0.2" : string);
      Durable.close d;
      let w =
        Wgrap_persist.Journal.Raw.open_writer (Durable.journal_path dir)
      in
      Wgrap_persist.Journal.Raw.append w "not-a-service-entry";
      Wgrap_persist.Journal.Raw.append w
        (Event.encode_entry (Event.Improve { seq = 3; ops = [] }));
      Wgrap_persist.Journal.Raw.close_writer w;
      (match Server.load_state config ~dir with
      | Ok _ -> Alcotest.fail "resume served past a poisoned journal record"
      | Error m ->
          Alcotest.(check bool) "error counts the stranded records" true
            (contains ~sub:"stranded" m));
      match Server.verify config ~dir with
      | Ok r -> Alcotest.failf "verify certified a poisoned journal: %s" r
      | Error _ -> ())

(* A snapshot ahead of everything the journal can replay is the
   signature of a lost acked prefix — the integrity oracle must flag
   it, and resume must refuse to build on it. *)
let test_lost_prefix_refused () =
  with_dir (fun dir ->
      let config = { (serve_cfg ()) with Server.snapshot_every = 2 } in
      let d = get_ok ~msg:"open" (Durable.open_ ~dir) in
      let t = get_ok ~msg:"create" (Server.create ~durable:d config) in
      List.iter
        (fun l -> ignore (Server.handle_line t l : string))
        [
          "1 reviewer-join 0 0.5,0.3,0.2";
          "2 reviewer-join 1 0.2,0.5,0.3";
          "3 paper-add 0 0.6,0.2,0.2";
          "4 paper-add 1 0.1,0.8,0.1";
        ];
      Durable.close d;
      Alcotest.(check bool) "snapshot taken" true
        (Sys.file_exists (Durable.snapshot_path dir));
      (* the acked prefix vanishes wholesale (lost volume, zeroed file):
         the snapshot now certifies events no replay can reach *)
      Sys.remove (Durable.journal_path dir);
      (match Server.verify config ~dir with
      | Ok r -> Alcotest.failf "verify certified lost acked events: %s" r
      | Error _ -> ());
      match Server.load_state config ~dir with
      | Ok _ ->
          Alcotest.fail "resume built on a journal missing its acked prefix"
      | Error m ->
          Alcotest.(check bool) "names the missing events" true
            (contains ~sub:"missing" m))

(* Snapshot certification must also reject coi/bid pairs no legal fold
   could hold: pair state is purged on withdraw/leave, so an orphan is
   smuggled state (a stale conflict could spring back to life if its
   paper id were re-added). *)
let test_decode_rejects_orphan_pairs () =
  let st = get_ok ~msg:"create" (State.create ~dim:3 ~delta_p:2 ~delta_r:3 ()) in
  let commit e = get_ok ~msg:"commit" (State.commit st e) in
  commit
    (Event.Client
       {
         seq = 1;
         id = 1;
         req = Event.Reviewer_join { reviewer = 0; vec = [| 0.5; 0.3; 0.2 |] };
         ops = [];
       });
  commit
    (Event.Client
       {
         seq = 2;
         id = 2;
         req = Event.Paper_add { paper = 0; vec = [| 0.6; 0.2; 0.2 |] };
         ops = [ Event.Set_group { paper = 0; group = [ 0 ] } ];
       });
  let img = State.encode st in
  (match State.decode img with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "clean image rejected: %s" m);
  List.iter
    (fun extra ->
      match State.decode (img ^ extra ^ "\n") with
      | Ok _ -> Alcotest.failf "image smuggling %S passed certification" extra
      | Error _ -> ())
    [ "coi 9 0"; "coi 0 9"; "bid 9 0 0x1p-1"; "bid 0 9 0x1p-1" ]

(* {1 Kill/resume bit-exactness} *)

(* Generate a plausible session as raw protocol lines. *)
let gen_session rng ~dim ~n_events =
  let next_id = ref 0 in
  let next_p = ref 0 and next_r = ref 0 in
  let papers = ref [] and reviewers = ref [] in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let vec () = Event.encode_vec (fresh_vec rng ~dim) in
  let lines = ref [] in
  let emit body =
    incr next_id;
    lines := Printf.sprintf "%d %s" !next_id body :: !lines
  in
  for _ = 1 to n_events do
    if !next_r < 2 then begin
      emit (Printf.sprintf "reviewer-join %d %s" !next_r (vec ()));
      reviewers := !next_r :: !reviewers;
      incr next_r
    end
    else
      match Rng.int rng 10 with
      | 0 ->
          emit (Printf.sprintf "reviewer-join %d %s" !next_r (vec ()));
          reviewers := !next_r :: !reviewers;
          incr next_r
      | 1 when List.length !reviewers > 1 ->
          let r = pick !reviewers in
          emit (Printf.sprintf "reviewer-leave %d" r);
          reviewers := List.filter (fun x -> x <> r) !reviewers
      | 2 when !papers <> [] ->
          let p = pick !papers in
          emit (Printf.sprintf "paper-withdraw %d" p);
          papers := List.filter (fun x -> x <> p) !papers
      | 3 when !papers <> [] ->
          emit (Printf.sprintf "coi-add %d %d" (pick !papers) (pick !reviewers))
      | 4 when !papers <> [] ->
          emit
            (Printf.sprintf "bid-update %d %d %.3f" (pick !papers)
               (pick !reviewers)
               (Rng.uniform rng *. 2.))
      | 5 when !papers <> [] -> emit (Printf.sprintf "query %d" (pick !papers))
      | _ ->
          emit (Printf.sprintf "paper-add %d %s" !next_p (vec ()));
          papers := !next_p :: !papers;
          incr next_p
  done;
  List.rev !lines

(* Fold the acknowledged journal prefix from scratch — the oracle the
   recovered state must match byte for byte. *)
let oracle_fold ~dim ~delta_p ~delta_r records =
  let st = get_ok ~msg:"oracle create" (State.create ~dim ~delta_p ~delta_r ()) in
  List.iter
    (fun payload ->
      let entry = get_ok ~msg:"oracle decode" (Event.decode_entry payload) in
      get_ok ~msg:"oracle commit" (State.commit st entry))
    records;
  st

let kill_resume_test =
  QCheck.Test.make
    ~name:"kill anywhere + resume replays bit-identically (chaos files)"
    ~count:70
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let streams = Rng.split (Rng.create seed) 3 in
      let gen_rng = streams.(0)
      and drive_rng = streams.(1)
      and chaos_rng = streams.(2) in
      let dim = 3 and delta_p = 2 and delta_r = 3 in
      let lines = gen_session gen_rng ~dim ~n_events:30 in
      with_dir (fun dir ->
          let config =
            {
              (Server.default ~dim ~delta_p ~delta_r) with
              Server.snapshot_every = 8;
            }
          in
          let durable = get_ok ~msg:"durable open" (Durable.open_ ~dir) in
          let t = get_ok ~msg:"server create" (Server.create ~durable config) in
          (* Drive a random prefix, with idle improvement interleaved,
             then "kill -9": walk away without snapshot or shutdown. *)
          let kill_at = Rng.int drive_rng (List.length lines + 1) in
          List.iteri
            (fun i line ->
              if i < kill_at then begin
                ignore (Server.handle_line t line);
                if Rng.int drive_rng 4 = 0 then ignore (Server.improve_once t)
              end)
            lines;
          Durable.close durable;
          (* Sometimes the crash also mangles a file on disk. *)
          let corrupted =
            match Rng.int chaos_rng 4 with
            | 0 ->
                let fault =
                  List.nth Chaos.file_faults
                    (Rng.int chaos_rng (List.length Chaos.file_faults))
                in
                Chaos.corrupt_file ~rng:chaos_rng fault (Durable.journal_path dir);
                true
            | 1 when Sys.file_exists (Durable.snapshot_path dir) ->
                let fault =
                  List.nth Chaos.file_faults
                    (Rng.int chaos_rng (List.length Chaos.file_faults))
                in
                Chaos.corrupt_file ~rng:chaos_rng fault
                  (Durable.snapshot_path dir);
                true
            | _ -> false
          in
          (* The soak oracle must hold after a clean kill. An injected
             file corruption may instead be *detected* (e.g. LOST
             PREFIX when the snapshot is ahead of what the mangled
             journal can still replay) — what it must never be is
             silently certified. *)
          (match Server.verify config ~dir with
          | Ok _ -> ()
          | Error e ->
              if not corrupted then
                QCheck.Test.fail_reportf "verify after kill: %s" e);
          (* Without file corruption the resume is exactly the fold of
             the acknowledged prefix. *)
          if not corrupted then begin
            let loaded = Durable.load ~dir in
            let oracle =
              oracle_fold ~dim ~delta_p ~delta_r loaded.Durable.records
            in
            let resumed, _notes =
              get_ok ~msg:"load_state" (Server.load_state config ~dir)
            in
            if State.encode resumed <> State.encode oracle then
              QCheck.Test.fail_reportf
                "resume diverged from oracle at seed %d (kill_at=%d)" seed
                kill_at;
            (* ... and the resumed service keeps working. *)
            let t2 = Server.of_state ~durable:(get_ok ~msg:"reopen" (Durable.open_ ~dir)) config resumed in
            let resp =
              Server.handle_line t2 (Printf.sprintf "%d health" (State.last_client resumed + 1))
            in
            if not (has_prefix ~prefix:"ok " resp) then
              QCheck.Test.fail_reportf "resumed server unhealthy: %s" resp
          end;
          true))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse accepts the grammar" `Quick test_parse_ok;
          Alcotest.test_case "parse rejects hostile lines" `Quick
            test_parse_rejects;
          Alcotest.test_case "request_id extraction" `Quick test_request_id;
          Alcotest.test_case "journal entry roundtrip" `Quick
            test_entry_roundtrip;
          Alcotest.test_case "vector codec bit-exact" `Quick test_vec_roundtrip;
        ] );
      (* the late-change group keeps its historical name so test ids
         stay stable *)
      ( "amend",
        [
          QCheck_alcotest.to_alcotest amend_coi_on_assigned_test;
          QCheck_alcotest.to_alcotest amend_leave_at_capacity_test;
          QCheck_alcotest.to_alcotest amend_withdraw_mid_improvement_test;
          QCheck_alcotest.to_alcotest leave_touches_holders_test;
          QCheck_alcotest.to_alcotest coi_touches_holder_test;
        ] );
      ( "plan",
        [
          Alcotest.test_case "arrival plan is exact" `Quick test_arrival_plan_exact;
          Alcotest.test_case "expired arrival plan degrades" `Quick
            test_arrival_plan_expired;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "id guards" `Quick test_id_guards;
          Alcotest.test_case "semantic rejections" `Quick
            test_semantic_rejections;
          Alcotest.test_case "reads" `Quick test_reads;
          Alcotest.test_case "stats on an over-subscribed committee" `Quick
            test_stats_oversubscribed;
          Alcotest.test_case "one answer per late change" `Quick
            test_late_change_one_answer;
          QCheck_alcotest.to_alcotest hostile_stream_test;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue bound" `Quick test_admission_queue_bound;
          Alcotest.test_case "latency trip wire" `Quick
            test_admission_latency_trip;
        ] );
      ( "loop",
        [
          Alcotest.test_case "pipe session + verify" `Quick
            test_run_loop_and_verify;
          Alcotest.test_case "oversized line" `Quick test_run_loop_oversized;
          Alcotest.test_case "socket client disconnect survives" `Quick
            test_socket_client_disconnect;
        ] );
      ( "durability",
        [
          Alcotest.test_case "torn tail physically truncated" `Quick
            test_torn_tail_physically_truncated;
          Alcotest.test_case "unterminated tail never trusted" `Quick
            test_unterminated_tail_is_torn;
          Alcotest.test_case "poisoned journal refuses resume" `Quick
            test_resume_refuses_poisoned_journal;
          Alcotest.test_case "lost acked prefix refused" `Quick
            test_lost_prefix_refused;
          Alcotest.test_case "orphan coi/bid fail certification" `Quick
            test_decode_rejects_orphan_pairs;
        ] );
      ("kill/resume", [ QCheck_alcotest.to_alcotest kill_resume_test ]);
    ]
