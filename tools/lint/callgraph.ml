(* Phase 2 of the interprocedural analysis: stitch per-module summaries
   into a whole-program call graph, propagate effects to a fixpoint, and
   answer the reachability questions the interprocedural rules ask.

   Effect propagation is mostly a plain union over call edges, with one
   twist: mutates-argument does not propagate as-is. When g mutates its
   parameter i, a caller f inherits the effect *through the argument it
   passed*: f's own parameter j (f then mutates parameter j), a shared
   value (f mutates shared state), or something fresh (no observable
   effect at all). That per-parameter precision is what keeps
   "fill the scratch buffer I handed you" from tainting every caller. *)

type t = {
  mods : Summary.t array;
  by_mod : (string, int list) Hashtbl.t;  (* module name -> indices *)
  by_value : (string, Summary.value) Hashtbl.t;  (* "mi#name" -> value *)
  trans : (string, Effects.Set.t) Hashtbl.t;  (* transitive effects *)
  trans_mut : (string, int list) Hashtbl.t;  (* transitive mutated params *)
}

let key mi name = string_of_int mi ^ "#" ^ name

let value_of t mi name = Hashtbl.find_opt t.by_value (key mi name)

let get_trans t mi name =
  Option.value ~default:Effects.Set.empty (Hashtbl.find_opt t.trans (key mi name))

let get_mut t mi name =
  Option.value ~default:[] (Hashtbl.find_opt t.trans_mut (key mi name))

(* --- name resolution ---------------------------------------------- *)

(* Resolve a textual callee reference from module [from]. "helper"
   looks up the caller's own module; "Mod.helper" any module named Mod;
   "A.B.helper" tries a value "B.helper" inside module A (nested
   submodule) as well as "helper" inside module B (A being a library
   namespace wrapper). A same-module "Sub.helper" also resolves. When
   several modules share a name (dune variants aside, distinct dirs),
   candidates from the caller's own directory win. *)
let resolve t ~from target : (int * Summary.value) list =
  let find_in mi name =
    match value_of t mi name with Some v -> [ (mi, v) ] | None -> []
  in
  let parts = String.split_on_char '.' target in
  match parts with
  | [] -> []
  | [ name ] -> find_in from name
  | _ -> (
      let local = find_in from target in
      if local <> [] then local
      else
        let arr = Array.of_list parts in
        let n = Array.length arr in
        let in_module mname vname =
          match Hashtbl.find_opt t.by_mod mname with
          | None -> []
          | Some idxs -> List.concat_map (fun mi -> find_in mi vname) idxs
        in
        let direct = in_module arr.(n - 2) arr.(n - 1) in
        let nested =
          if n >= 3 then in_module arr.(n - 3) (arr.(n - 2) ^ "." ^ arr.(n - 1))
          else []
        in
        match direct @ nested with
        | ([] | [ _ ]) as r -> r
        | cands ->
            let dir mi = Filename.dirname t.mods.(mi).Summary.path in
            let here = dir from in
            let same = List.filter (fun (mi, _) -> dir mi = here) cands in
            if same <> [] then same else cands)

(* --- argument binding --------------------------------------------- *)

(* Map call-site arguments onto callee parameter indices: labelled args
   match the parameter with the same label (optional or not), positional
   args fill the positional parameters in order. Unmatched slots stay
   [None]. *)
let bind_args ~params ~(args : (string * Summary.argroot) list) =
  let parr = Array.of_list params in
  let n = Array.length parr in
  let bound = Array.make n None in
  let strip l =
    if l <> "" && l.[0] = '?' then String.sub l 1 (String.length l - 1) else l
  in
  let next_pos = ref 0 in
  List.iter
    (fun (l, r) ->
      if l = "" then begin
        while !next_pos < n && parr.(!next_pos) <> "" do
          incr next_pos
        done;
        if !next_pos < n then begin
          bound.(!next_pos) <- Some r;
          incr next_pos
        end
      end
      else
        let l = strip l in
        let rec place i =
          if i < n then
            if strip parr.(i) = l && bound.(i) = None then bound.(i) <- Some r
            else place (i + 1)
        in
        place 0)
    args;
  bound

(* Does edge [c] into [cv] pass a shared value into a (transitively)
   mutated parameter? That is how mutates-argument becomes
   mutates-shared at this call site. *)
let edge_mutates_shared t (c : Summary.callee) (cmi, (cv : Summary.value)) =
  match get_mut t cmi cv.vname with
  | [] -> false
  | cmut ->
      let bound = bind_args ~params:cv.params ~args:c.args in
      List.exists
        (fun i ->
          i < Array.length bound && bound.(i) = Some Summary.Arg_shared)
        cmut

(* --- construction and fixpoint ------------------------------------ *)

let build (summaries : Summary.t list) : t =
  let mods = Array.of_list summaries in
  let t =
    {
      mods;
      by_mod = Hashtbl.create 64;
      by_value = Hashtbl.create 512;
      trans = Hashtbl.create 512;
      trans_mut = Hashtbl.create 512;
    }
  in
  Array.iteri
    (fun mi (s : Summary.t) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt t.by_mod s.modname)
      in
      Hashtbl.replace t.by_mod s.modname (prev @ [ mi ]);
      List.iter
        (fun (v : Summary.value) ->
          (* replace: a later binding of the same name shadows. *)
          Hashtbl.replace t.by_value (key mi v.vname) v;
          Hashtbl.replace t.trans (key mi v.vname) v.info.effects;
          Hashtbl.replace t.trans_mut (key mi v.vname) v.info.mut_params)
        s.values)
    mods;
  (* Chaotic iteration to a fixpoint: effect sets and mutated-parameter
     sets only grow and both are finite, so this terminates; the round
     cap is a backstop against resolver bugs, not a semantics. *)
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < 1000 do
    changed := false;
    incr rounds;
    Array.iteri
      (fun mi (s : Summary.t) ->
        List.iter
          (fun (v : Summary.value) ->
            let k = key mi v.vname in
            let eff = ref (get_trans t mi v.vname) in
            let mut = ref (get_mut t mi v.vname) in
            List.iter
              (fun (c : Summary.callee) ->
                List.iter
                  (fun (cmi, (cv : Summary.value)) ->
                    let ceff = get_trans t cmi cv.vname in
                    eff :=
                      Effects.Set.union !eff
                        (Effects.Set.inter ceff Effects.Set.propagated);
                    match get_mut t cmi cv.vname with
                    | [] -> ()
                    | cmut ->
                        let bound = bind_args ~params:cv.params ~args:c.args in
                        List.iter
                          (fun i ->
                            if i < Array.length bound then
                              match bound.(i) with
                              | Some (Summary.Arg_param j) ->
                                  if not (List.mem j !mut) then
                                    mut := j :: !mut
                              | Some Summary.Arg_shared ->
                                  eff :=
                                    Effects.Set.add Effects.Mut_global !eff
                              | Some Summary.Arg_other | None -> ())
                          cmut)
                  (resolve t ~from:mi c.target))
              v.info.callees;
            let mut = List.sort_uniq Int.compare !mut in
            if
              (not (Effects.Set.equal !eff (get_trans t mi v.vname)))
              || mut <> get_mut t mi v.vname
            then begin
              changed := true;
              Hashtbl.replace t.trans k !eff;
              Hashtbl.replace t.trans_mut k mut
            end)
          s.values)
      mods
  done;
  t

(* --- queries ------------------------------------------------------ *)

let module_of_path t path =
  let path = Lint_path.repo_relative path in
  let found = ref None in
  Array.iteri
    (fun mi (s : Summary.t) -> if s.path = path then found := Some mi)
    t.mods;
  !found

(* Effective effect set of a function-like body relative to module
   [from]: its direct effects, everything propagatable its callees
   transitively do, and mutates-shared whenever it passes a shared value
   into a callee's mutated parameter. *)
let effective t ~from (i : Summary.funinfo) : Effects.Set.t =
  let eff = ref i.effects in
  List.iter
    (fun (c : Summary.callee) ->
      List.iter
        (fun (cmi, (cv : Summary.value)) ->
          eff :=
            Effects.Set.union !eff
              (Effects.Set.inter
                 (get_trans t cmi cv.vname)
                 Effects.Set.propagated);
          if edge_mutates_shared t c (cmi, (cv : Summary.value)) then
            eff := Effects.Set.add Effects.Mut_global !eff)
        (resolve t ~from c.target))
    i.callees;
  !eff

(* A human-readable witness for why [eff] is in [info]'s effective set:
   either a direct origin, or a breadth-first shortest call chain ending
   at one. *)
let witness t ~from (info : Summary.funinfo) (eff : Effects.t) : string =
  let direct (i : Summary.funinfo) =
    List.find_opt (fun (o : Summary.origin) -> o.Summary.oeffect = eff) i.origins
  in
  let describe chain tail =
    match chain with
    | [] -> tail
    | _ -> Printf.sprintf "via %s: %s" (String.concat " -> " (List.rev chain)) tail
  in
  match direct info with
  | Some o -> Printf.sprintf "%s (line %d)" o.oident o.oline
  | None -> (
      let exception Found of string in
      let seen = Hashtbl.create 64 in
      let q = Queue.create () in
      let visit chain mi (c : Summary.callee) =
        List.iter
          (fun (cmi, (cv : Summary.value)) ->
            if eff = Effects.Mut_global && edge_mutates_shared t c (cmi, cv)
            then
              raise
                (Found
                   (describe chain
                      (Printf.sprintf
                         "passes captured/shared state to %s, which mutates \
                          its argument"
                         c.target)));
            let k = key cmi cv.vname in
            if
              Effects.Set.mem eff (get_trans t cmi cv.vname)
              && not (Hashtbl.mem seen k)
            then begin
              Hashtbl.add seen k ();
              let chain = c.target :: chain in
              match direct cv.info with
              | Some o ->
                  raise
                    (Found
                       (describe chain
                          (Printf.sprintf "%s (%s:%d)" o.oident
                             t.mods.(cmi).Summary.path o.oline)))
              | None -> Queue.add (chain, cmi, cv) q
            end)
          (resolve t ~from:mi c.target)
      in
      try
        List.iter (visit [] from) info.callees;
        while not (Queue.is_empty q) do
          let chain, mi, (v : Summary.value) = Queue.pop q in
          List.iter (visit chain mi) v.info.callees
        done;
        "reached transitively"
      with Found s -> s)
