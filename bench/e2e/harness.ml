module Timer = Wgrap_util.Timer

type metric = {
  name : string;
  unit : string;
  higher_better : bool;
  bound : float option;
  exact_on : string list;
}

let workloads = [ "cra-dense"; "cra-pruned-k16"; "jra-shortlist"; "serve-wal" ]

let m ?(higher_better = false) ?bound ?(exact_on = []) name unit =
  { name; unit; higher_better; bound; exact_on }

(* Solves without a deadline: the quality a seed yields repeats bit for
   bit. serve-wal plans under a 50 ms event budget, so its quality
   depends on timing. *)
let seed_exact = [ "cra-dense"; "cra-pruned-k16"; "jra-shortlist" ]

let end_to_end =
  [
    m ~bound:0.25 "setup_s" "s";
    m ~higher_better:true ~bound:0.25 "ops_per_s" "1/s";
    m ~bound:0.25 "op_p50_ms" "ms";
    m ~bound:0.25 "op_tail_ms" "ms";
    m ~bound:0.1 "peak_rss_mb" "MB";
    m ~higher_better:true ~bound:0.02 ~exact_on:seed_exact "coverage_mean" "score";
    m ~higher_better:true ~bound:0.03 ~exact_on:seed_exact "coverage_p10" "score";
  ]

let per_layer =
  [
    m "instance.create_s" "s";
    m "gain_matrix.candidates_s" "s";
    m "gain_matrix.candidates.count" "count";
    m "gain_matrix.denominators_s" "s";
    m "gain_matrix.prime_s" "s";
    m "gain_matrix.bytes" "B";
    m "sdga.solve_s" "s";
    m "sdga.stage1_s" "s";
    m "sdga.stage2_s" "s";
    m "sdga.stage3_s" "s";
    m "sra.refine_s" "s";
    m "sra.rounds" "count";
    m "sra.round_p50_ms" "ms";
    m "sra.round_p90_ms" "ms";
    m ~higher_better:true "sra.improving_rounds" "count";
    m ~higher_better:true "sra.useful_ratio" "ratio";
    m "assignment.validate_s" "s";
    m "summary.compute_s" "s";
    m "rss.setup_mb" "MB";
    m "rss.primed_mb" "MB";
    m "rss.sdga_mb" "MB";
    m "rss.sra_mb" "MB";
    m "gc.top_heap_mb" "MB";
    m "gc.major_collections" "count";
    m "jra.problem_build_p50_ms" "ms";
    m "solver.jra_p50_ms" "ms";
    m "solver.jra_p95_ms" "ms";
    m "jra_ilp.query_p50_ms" "ms";
    m "jra_ilp.query_p90_ms" "ms";
    m "jra_bba.query_p50_ms" "ms";
    m "jra_bba.query_p90_ms" "ms";
    m "jra_bba.nodes" "count";
    m ~higher_better:true "jra_bba.pruned" "count";
    m "jra_greedy.gap" "ratio";
    m "state.plan_p50_ms.paper-add" "ms";
    m "state.plan_p50_ms.paper-withdraw" "ms";
    m "state.plan_p50_ms.coi-add" "ms";
    m "state.plan_p50_ms.bid-update" "ms";
    m "state.plan_p95_ms" "ms";
    m "state.plan.degraded" "count";
    m "durable.append_p50_ms" "ms";
    m "durable.append_p95_ms" "ms";
    m "state.commit_p50_ms" "ms";
    m "durable.snapshot_p50_ms" "ms";
    m "durable.snapshots" "count";
    m "server.load_state_s" "s";
    m "trace.overhead" "ratio";
  ]

(* {1 Statistics} *)

let percentile xs q =
  if Array.length xs = 0 then Float.nan else Wgrap_util.Stats.percentile xs q

let median xs = percentile xs 0.5

let tail_quantile ~want n =
  List.find_map
    (fun pct ->
      let q = float_of_int pct /. 100. in
      if q <= want && n * (100 - pct) / 100 >= 10 then Some q else None)
    [ 99; 95; 90; 75; 50 ]

let tail ~want xs =
  let q =
    Option.value (tail_quantile ~want (Array.length xs)) ~default:0.5
  in
  (percentile xs q, q)

let quartiles xs =
  let data = Array.copy xs in
  Array.sort Float.compare data;
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Harness.quartiles: no samples"
  else if ld = 1 then (data.(0), data.(0), data.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((data.(j - 1) *. (4. -. delta)) +. (data.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let verdict ~higher_better ~bound ~base ~head =
  let good x = if higher_better then x else -.x in
  let q1b, mb, q3b = quartiles base and q1h, mh, q3h = quartiles head in
  let scale x = Float.max (Float.abs x) 1e-300 in
  let worse_share = (good mb -. good mh) /. scale mb in
  let spread = Float.max ((q3b -. q1b) /. scale mb) ((q3h -. q1h) /. scale mh) in
  let pairs = min (Array.length base) (Array.length head) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if good head.(i) > good base.(i) then incr wins
  done;
  let gain =
    good mh > good mb
    && float_of_int !wins >= 0.9 *. float_of_int pairs
    && Float.abs (mh -. mb) > q3b -. q1b
  in
  let every_run_better =
    Array.fold_left (fun acc x -> Float.min acc (good x)) Float.infinity head
    > Array.fold_left (fun acc x -> Float.max acc (good x)) Float.neg_infinity base
  in
  if worse_share > bound then Worse
  else if spread > bound then if every_run_better then Better else Unresolved
  else if gain then Better
  else Unchanged

let exact_tolerance = 1e-6

let paired_verdict ~higher_better ~base ~head =
  let pairs =
    List.filter_map
      (fun (seed, b) -> Option.map (fun h -> (b, h)) (List.assoc_opt seed head))
      base
  in
  let good x = if higher_better then x else -.x in
  let change (b, h) = (good h -. good b) /. Float.max (Float.abs b) 1e-300 in
  let wins = List.length (List.filter (fun p -> change p > exact_tolerance) pairs) in
  if pairs = [] then Unresolved
  else if List.exists (fun p -> change p < -.exact_tolerance) pairs then Worse
  else if 10 * wins >= 9 * List.length pairs then Better
  else Unchanged

(* {1 Tracing} *)

module Trace = struct
  type span = {
    name : string;
    trace_id : int;
    span_id : int;
    parent : int;
    start_ns : int;
    end_ns : int;
    attrs : (string * string) list;
  }

  type t = {
    mutable trace : int;
    mutable next_id : int;
    mutable open_ : int list;  (** innermost first *)
    mutable done_ : span list;
  }

  let create () = { trace = 0; next_id = 0; open_ = []; done_ = [] }
  let set_trace t id = t.trace <- id
  let ns s = int_of_float (s *. 1e9)

  let fresh_id t =
    let id = t.next_id in
    t.next_id <- id + 1;
    id

  let parent t = match t.open_ with p :: _ -> p | [] -> -1

  let mark t name ~start ~stop =
    t.done_ <-
      {
        name;
        trace_id = t.trace;
        span_id = fresh_id t;
        parent = parent t;
        start_ns = ns start;
        end_ns = ns stop;
        attrs = [];
      }
      :: t.done_

  let span t ?attrs name f =
    let start = Timer.now () in
    let id = fresh_id t in
    let parent = parent t in
    t.open_ <- id :: t.open_;
    let finish () =
      t.open_ <- List.tl t.open_;
      t.done_ <-
        {
          name;
          trace_id = t.trace;
          span_id = id;
          parent;
          start_ns = ns start;
          end_ns = ns (Timer.now ());
          attrs = Option.value attrs ~default:[];
        }
        :: t.done_
    in
    Fun.protect ~finally:finish f

  let spans t =
    List.sort
      (fun a b ->
        match Int.compare a.start_ns b.start_ns with
        | 0 -> Int.compare a.span_id b.span_id
        | c -> c)
      t.done_

  let self_ns spans =
    let children = Hashtbl.create 64 in
    List.iter
      (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
      spans;
    List.map
      (fun s ->
        let intervals =
          List.sort compare
            (List.map
               (fun c -> (max c.start_ns s.start_ns, min c.end_ns s.end_ns))
               (Hashtbl.find_all children s.span_id))
        in
        (* Length of the union of the clipped child intervals. *)
        let covered, _ =
          List.fold_left
            (fun (acc, reach) (lo, hi) ->
              let lo = max lo reach in
              if hi > lo then (acc + (hi - lo), hi) else (acc, reach))
            (0, min_int) intervals
        in
        (s, s.end_ns - s.start_ns - covered))
      spans

  let matches ?attr s name =
    String.equal s.name name
    &&
    match attr with
    | None -> true
    | Some (k, v) -> (
        match List.assoc_opt k s.attrs with
        | Some v' -> String.equal v v'
        | None -> false)

  let seconds s = float_of_int (s.end_ns - s.start_ns) /. 1e9

  let durations ?attr spans name =
    Array.of_list
      (List.filter_map
         (fun s -> if matches ?attr s name then Some (seconds s) else None)
         spans)

  let per_trace spans name =
    let totals = Hashtbl.create 64 and order = ref [] in
    List.iter
      (fun s ->
        if matches s name then begin
          if not (Hashtbl.mem totals s.trace_id) then begin
            order := s.trace_id :: !order;
            Hashtbl.replace totals s.trace_id 0.
          end;
          Hashtbl.replace totals s.trace_id
            (Hashtbl.find totals s.trace_id +. seconds s)
        end)
      spans;
    Array.of_list (List.rev_map (Hashtbl.find totals) !order)

  let write_jsonl spans path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun (s, self) ->
            let num i = Json.Num (float_of_int i) in
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [
                      ("name", Json.Str s.name);
                      ("trace_id", num s.trace_id);
                      ("span_id", num s.span_id);
                      ("parent", if s.parent < 0 then Json.Null else num s.parent);
                      ("start_ns", num s.start_ns);
                      ("end_ns", num s.end_ns);
                      ("self_ns", num self);
                      ( "attrs",
                        Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.attrs)
                      );
                    ]));
            output_char oc '\n')
          (self_ns spans))
end

(* {1 Host and process} *)

type host = { nproc : int; ocaml : string; commit : string }

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> In_channel.input_line ic)

(* HEAD is either a hash or "ref: refs/heads/<b>", resolved through the
   loose ref or packed-refs. No git process is spawned. *)
let git_commit () =
  match read_first_line ".git/HEAD" with
  | None -> None
  | Some head ->
      let prefix = "ref: " in
      let pl = String.length prefix in
      if String.length head > pl && String.equal (String.sub head 0 pl) prefix
      then
        let name = String.trim (String.sub head pl (String.length head - pl)) in
        match read_first_line (Filename.concat ".git" name) with
        | Some hash -> Some (String.trim hash)
        | None -> (
            match open_in ".git/packed-refs" with
            | exception Sys_error _ -> None
            | ic ->
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () ->
                    List.find_map
                      (fun line ->
                        match String.split_on_char ' ' line with
                        | [ hash; r ] when String.equal r name -> Some hash
                        | _ -> None)
                      (In_channel.input_all ic |> String.split_on_char '\n')))
      else Some (String.trim head)

let host () =
  {
    nproc = Wgrap_par.Pool.recommended_jobs ();
    ocaml = Sys.ocaml_version;
    commit = Option.value (git_commit ()) ~default:"unknown";
  }

let host_json h =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int h.nproc));
      ("ocaml", Json.Str h.ocaml);
      ("commit", Json.Str h.commit);
      ("jobs", Json.Num 1.);
    ]

let proc_status_kb key =
  let prefix = key ^ ":" in
  let plen = String.length prefix in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some line
              when String.length line >= plen
                   && String.equal (String.sub line 0 plen) prefix -> (
                match
                  String.split_on_char ' '
                    (String.trim (String.sub line plen (String.length line - plen)))
                with
                | n :: _ -> int_of_string_opt n
                | [] -> None)
            | Some _ -> scan ()
          in
          scan ())

(* {1 Results} *)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, value, unit) ->
                  (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
                metrics) );
       ])

let read_result path =
  let ( let* ) = Result.bind in
  let* text =
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Ok text
    | exception Sys_error e -> Error e
  in
  let* doc = Json.parse text in
  let field k conv =
    match Option.bind (Json.member k doc) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing or malformed %S" path k)
  in
  let* workload = field "workload" Json.to_str in
  let* seed = field "seed" Json.to_num in
  let* metrics =
    field "metrics" (function Json.Obj l -> Some l | _ -> None)
  in
  let values =
    List.filter_map
      (fun (name, v) ->
        Option.map (fun x -> (name, x)) (Option.bind (Json.member "value" v) Json.to_num))
      metrics
  in
  Ok (workload, int_of_float seed, values)
