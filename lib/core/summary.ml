module Stats = Wgrap_util.Stats

type t = {
  n_papers : int;
  n_reviewers : int;
  coverage_total : float;
  coverage_mean : float;
  coverage_min : float;
  coverage_p10 : float;
  coverage_max : float;
  coverage_gini : float;
  topic_balance : float;
  objective_name : string;
  objective_value : float;
  workload_min : int;
  workload_max : int;
  workload_mean : float;
  idle_reviewers : int;
  coi_violations : int;
}

let per_paper_scores inst assignment =
  Array.init (Instance.n_papers inst) (fun p ->
      Assignment.paper_score inst assignment p)

(* Gini coefficient over per-paper coverages via the sorted formula
   G = (2 * sum_i i*x_(i)) / (n * sum x) - (n + 1) / n, 1-indexed
   ascending; 0 for an all-zero (or empty) profile. In [0, 1): 0 is
   perfect equality, higher means coverage concentrates on few papers. *)
let gini scores =
  let n = Array.length scores in
  let total = Stats.sum scores in
  if n = 0 || total <= 0. then 0.
  else begin
    let sorted = Array.copy scores in
    Array.sort Float.compare sorted;
    let weighted = ref 0. in
    Array.iteri
      (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x))
      sorted;
    let nf = float_of_int n in
    (2. *. !weighted /. (nf *. total)) -. ((nf +. 1.) /. nf)
  end

(* Per-topic balance: papers are keyed by their dominant topic (argmax
   of the paper vector, lowest index on ties) and the mean coverage is
   taken per occupied topic; the balance is min mean / max mean — 1
   when every topic community is served equally, small when some topic
   is systematically starved. 1 for degenerate profiles (no positive
   mean). *)
let topic_balance inst scores =
  let n_t = Instance.n_topics inst in
  let sum = Array.make n_t 0. and count = Array.make n_t 0 in
  Array.iteri
    (fun p s ->
      let vec = inst.Instance.papers.(p) in
      let dom = ref 0 in
      for t = 1 to n_t - 1 do
        if vec.(t) > vec.(!dom) then dom := t
      done;
      sum.(!dom) <- sum.(!dom) +. s;
      count.(!dom) <- count.(!dom) + 1)
    scores;
  let lo = ref infinity and hi = ref 0. in
  for t = 0 to n_t - 1 do
    if count.(t) > 0 then begin
      let m = sum.(t) /. float_of_int count.(t) in
      if m < !lo then lo := m;
      if m > !hi then hi := m
    end
  done;
  if !hi <= 0. then 1. else !lo /. !hi

let compute ?(objective = Objective.coverage) inst assignment =
  let obj = Objective.bind objective inst in
  let n_p = Instance.n_papers inst and n_r = Instance.n_reviewers inst in
  let scores = Objective.per_paper_scores obj assignment in
  let workloads = Assignment.workloads assignment ~n_reviewers:n_r in
  let lo, hi = Stats.min_max scores in
  let w_min = Array.fold_left min max_int workloads in
  let w_max = Array.fold_left max 0 workloads in
  let idle = Array.fold_left (fun acc w -> if w = 0 then acc + 1 else acc) 0 workloads in
  let coi_violations = ref 0 in
  Array.iteri
    (fun p group ->
      List.iter
        (fun r -> if Instance.forbidden inst ~paper:p ~reviewer:r then incr coi_violations)
        group)
    assignment.Assignment.groups;
  {
    n_papers = n_p;
    n_reviewers = n_r;
    coverage_total = Stats.sum scores;
    coverage_mean = Stats.mean scores;
    coverage_min = lo;
    coverage_p10 = Stats.percentile scores 0.1;
    coverage_max = hi;
    coverage_gini = gini scores;
    topic_balance = topic_balance inst scores;
    objective_name = Objective.name objective;
    objective_value = Objective.value obj assignment;
    workload_min = w_min;
    workload_max = w_max;
    workload_mean = Stats.mean (Array.map float_of_int workloads);
    idle_reviewers = idle;
    coi_violations = !coi_violations;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>papers: %d, reviewers: %d@,\
     objective: %s = %.4f@,\
     coverage: total %.4f, mean %.4f, min %.4f, p10 %.4f, max %.4f@,\
     fairness: gini %.4f, topic balance %.4f@,\
     workload: min %d, mean %.2f, max %d (%d idle reviewers)@,\
     COI violations: %d@]"
    t.n_papers t.n_reviewers t.objective_name t.objective_value
    t.coverage_total t.coverage_mean t.coverage_min t.coverage_p10
    t.coverage_max t.coverage_gini t.topic_balance t.workload_min
    t.workload_mean t.workload_max t.idle_reviewers t.coi_violations

let worst_papers inst assignment ~k =
  let scores = per_paper_scores inst assignment in
  let indexed = Array.mapi (fun p s -> (p, s)) scores in
  Array.sort (fun (_, a) (_, b) -> compare a b) indexed;
  Array.to_list (Array.sub indexed 0 (min k (Array.length indexed)))

let coverage_histogram ?(buckets = 10) inst assignment =
  if buckets < 1 then invalid_arg "Summary.coverage_histogram";
  let scores = per_paper_scores inst assignment in
  let counts = Array.make buckets 0 in
  let width = 1. /. float_of_int buckets in
  Array.iter
    (fun s ->
      let b = min (buckets - 1) (int_of_float (s /. width)) in
      let b = max 0 b in
      counts.(b) <- counts.(b) + 1)
    scores;
  Array.mapi
    (fun i c -> (float_of_int i *. width, float_of_int (i + 1) *. width, c))
    counts

(* --- the one JSON rendering ------------------------------------- *)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_json ?(compact = false) ?(extra = []) t =
  let fields =
    extra
    @ [
        ("papers", string_of_int t.n_papers);
        ("reviewers", string_of_int t.n_reviewers);
        ( "objective",
          Printf.sprintf "{\"name\": %s, \"value\": %.9f}"
            (json_string t.objective_name) t.objective_value );
        ( "coverage",
          Printf.sprintf
            "{\"total\": %.9f, \"mean\": %.9f, \"min\": %.9f, \"p10\": %.9f, \
             \"max\": %.9f}"
            t.coverage_total t.coverage_mean t.coverage_min t.coverage_p10
            t.coverage_max );
        ( "fairness",
          Printf.sprintf "{\"gini\": %.9f, \"topic_balance\": %.9f}"
            t.coverage_gini t.topic_balance );
        ( "workload",
          Printf.sprintf
            "{\"min\": %d, \"mean\": %.4f, \"max\": %d, \"idle\": %d}"
            t.workload_min t.workload_mean t.workload_max t.idle_reviewers );
      ]
    @ [ ("coi_violations", string_of_int t.coi_violations) ]
  in
  let pair (k, v) = json_string k ^ ": " ^ v in
  if compact then "{" ^ String.concat ", " (List.map pair fields) ^ "}"
  else "{\n  " ^ String.concat ",\n  " (List.map pair fields) ^ "\n}\n"
