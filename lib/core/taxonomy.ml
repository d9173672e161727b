(* A topic taxonomy: a forest over the instance's topic indices, used by
   the hierarchical-similarity objective (Objective.Taxonomy). Nodes are
   the topic ids themselves, so a taxonomy binds to any instance whose
   dimension matches its size. *)

type t = {
  parent : int array;  (* parent.(t) = parent topic, -1 for roots *)
  depth : int array;  (* hops to the root, 0 for roots *)
  by_depth : int array;  (* node ids ordered by increasing depth *)
}

let dim t = Array.length t.parent

(* Depths double as the cycle check: a chain longer than [n] must
   revisit a node. *)
let build parent =
  let n = Array.length parent in
  let depth = Array.make n (-1) in
  let rec depth_of steps v =
    if steps > n then Error (Printf.sprintf "cycle through topic %d" v)
    else if parent.(v) < 0 then Ok 0
    else if depth.(parent.(v)) >= 0 then Ok (depth.(parent.(v)) + 1)
    else
      Result.map (fun d -> d + 1) (depth_of (steps + 1) parent.(v))
  in
  let err = ref None in
  for v = 0 to n - 1 do
    if !err = None then
      match depth_of 0 v with
      | Ok d -> depth.(v) <- d
      | Error e -> err := Some e
  done;
  match !err with
  | Some e -> Error e
  | None ->
      let by_depth = Array.init n Fun.id in
      Array.sort
        (fun a b ->
          match Int.compare depth.(a) depth.(b) with
          | 0 -> Int.compare a b
          | c -> c)
        by_depth;
      Ok { parent; depth; by_depth }

let create parent =
  let n = Array.length parent in
  if n = 0 then Error "empty taxonomy"
  else begin
    let bad = ref None in
    Array.iteri
      (fun v p ->
        if p >= n then
          bad := Some (Printf.sprintf "topic %d: parent %d out of range" v p)
        else if p = v then
          bad := Some (Printf.sprintf "topic %d is its own parent" v))
      parent;
    match !bad with
    | Some e -> Error e
    | None -> build (Array.copy parent)
  end

let create_exn parent =
  match create parent with
  | Ok t -> t
  | Error e -> invalid_arg ("Taxonomy.create: " ^ e)

(* A balanced [arity]-ary forest with one root: node 0 is the root and
   node v hangs under (v - 1) / arity — the synthetic default when no
   curated tree is available (CLI/bench taxonomy legs on presets). *)
let balanced ~dim ~arity =
  if dim < 1 then invalid_arg "Taxonomy.balanced: dim must be >= 1";
  if arity < 1 then invalid_arg "Taxonomy.balanced: arity must be >= 1";
  create_exn (Array.init dim (fun v -> if v = 0 then -1 else (v - 1) / arity))

let parent t v = t.parent.(v)
let depth t v = t.depth.(v)

(* Tree distance in hops through the lowest common ancestor — the
   deeper endpoint climbs until the walks meet. Nodes in different
   trees of the forest are infinitely far apart ([None]). *)
let distance t a b =
  let da = ref a and db = ref b and hops_a = ref 0 and hops_b = ref 0 in
  while !da <> !db && (t.depth.(!da) > 0 || t.depth.(!db) > 0) do
    if t.depth.(!da) >= t.depth.(!db) then begin
      da := t.parent.(!da);
      incr hops_a
    end
    else begin
      db := t.parent.(!db);
      incr hops_b
    end
  done;
  if !da = !db then Some (!hops_a + !hops_b) else None

let similarity t ~decay a b =
  match distance t a b with
  | None -> 0.
  | Some d -> decay ** float_of_int d

(* Tree-smoothed expertise: smoothed.(u) = max_v vec.(v) * decay^d(u,v).
   Two passes over the depth order make this O(n): an upward sweep
   (deepest first) folds each node's best descendant value into its
   parent, and a downward sweep (shallowest first) folds each parent's
   best into its children. Any u-v tree path decomposes into an upward
   leg to the LCA and a downward leg from it, so the composition of the
   two sweeps realizes exactly decay^d(u,v) — see test_objective.ml for
   the brute-force oracle. *)
let smooth t ~decay vec =
  let n = dim t in
  if Array.length vec <> n then
    invalid_arg "Taxonomy.smooth: dimension mismatch";
  if decay < 0. || decay > 1. then
    invalid_arg "Taxonomy.smooth: decay must lie in [0, 1]";
  let best = Array.copy vec in
  (* Upward: deepest nodes first, so a node's slot already holds the
     max over its whole subtree when it is folded into its parent. *)
  for i = n - 1 downto 0 do
    let v = t.by_depth.(i) in
    let p = t.parent.(v) in
    if p >= 0 && best.(v) *. decay > best.(p) then best.(p) <- best.(v) *. decay
  done;
  (* Downward: shallowest first, so each node sees its parent's final
     value (which already includes every other branch). *)
  Array.iter
    (fun v ->
      let p = t.parent.(v) in
      if p >= 0 && best.(p) *. decay > best.(v) then best.(v) <- best.(p) *. decay)
    t.by_depth;
  best

(* {1 TSV codec}

   One edge per line, [child \t parent], parent [-1] (or [-]) for a
   root. Topics never mentioned default to roots, so a partial file
   over a large dimension is legal. *)

let of_lines ~dim lines =
  if dim < 1 then Error "taxonomy dimension must be >= 1"
  else begin
    let parent = Array.make dim (-1) in
    let err = ref None in
    List.iteri
      (fun lineno line ->
        if !err = None then
          let line = String.trim line in
          if line <> "" && line.[0] <> '#' then
            match String.split_on_char '\t' line with
            | [ child; par ] -> (
                let par = String.trim par in
                match
                  ( int_of_string_opt (String.trim child),
                    if par = "-" then Some (-1) else int_of_string_opt par )
                with
                | Some c, Some p when c >= 0 && c < dim && p >= -1 && p < dim ->
                    parent.(c) <- p
                | Some _, Some _ ->
                    err :=
                      Some
                        (Printf.sprintf
                           "line %d: topic id out of range in %S (taxonomy \
                            dimension is %d)"
                           (lineno + 1) line dim)
                | _ ->
                    err :=
                      Some
                        (Printf.sprintf "line %d: malformed edge %S"
                           (lineno + 1) line))
            | _ ->
                err :=
                  Some
                    (Printf.sprintf "line %d: expected child\\tparent, got %S"
                       (lineno + 1) line))
      lines;
    match !err with Some e -> Error e | None -> create parent
  end
