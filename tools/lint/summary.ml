(* Phase-1 output: one effect summary per compilation unit, listing
   every top-level value's direct effects, parameter-mutation set, call
   edges (with argument bindings) and Pool spawn sites. Serialized to a
   line-based text file in `.lint-summaries/` keyed by source digest
   (see {!Cache}), so phase 2 can rebuild the whole-program call graph
   without re-parsing unchanged modules.

   The format is versioned: bump [version] whenever the summarizer's
   semantics change, so stale caches self-invalidate. *)

let version = 1

(* Where a direct effect was observed: the offending identifier and its
   line, kept so interprocedural findings can name the root cause
   ("mutates shared 'tally' via Hashtbl.replace at state.ml:42"). *)
type origin = { oeffect : Effects.t; oline : int; oident : string }

(* How a call-site argument is rooted, from the calling function's
   point of view: one of its own parameters (by index), a value shared
   beyond it (module state, another module, a captured binding), or
   something opaque/fresh (literals, constructed values, complex
   expressions — mutating those is not observable by anyone else). *)
type argroot = Arg_param of int | Arg_shared | Arg_other

(* One call edge out of a function body. [target] is the textual
   reference as written ("helper", "Gain_matrix.rebuild"), resolved
   against the module set in phase 2. [args] carries the label and root
   of each applied argument so the callee's per-parameter mutation set
   can be lifted precisely: callee mutates a parameter bound to our
   parameter j => we mutate parameter j; bound to a shared value =>
   we mutate shared state. *)
type callee = {
  target : string;
  cline : int;
  args : (string * argroot) list;  (* label ("" = positional), root *)
}

(* The body of one function-like thing: a top-level value or a closure
   handed to the pool. [mut_params] lists the parameter indices the
   body writes through (directly or via callees at summarize time only
   directly; the transitive closure happens in phase 2). *)
type funinfo = {
  effects : Effects.Set.t;
  mut_params : int list;
  origins : origin list;
  callees : callee list;
}

(* A closure passed to Pool.run/map/iter/reduce. [allowed] is true when
   a [@wgrap.allow "domain-race"] scope covers the call site. Inside the
   closure, argument roots are judged relative to the closure's own
   scope: anything captured from the coordinator counts as shared. *)
type spawn = {
  sline : int;
  pool_fn : string;
  allowed : bool;
  sbody : funinfo;
}

type value = {
  vname : string;  (* possibly "Sub.name" for values in nested modules *)
  vline : int;
  vallows : string list;  (* [@wgrap.allow] rules in force at the binding *)
  params : string list;  (* parameter labels, "" for positional *)
  info : funinfo;
  spawns : spawn list;
}

type t = {
  digest : string;
  path : string;  (* repo-relative source path *)
  modname : string;  (* capitalized basename up to the first '.' *)
  file_allows : string list;
  values : value list;
}

(* "pool_backend.domains.ml" and "pool_backend.seq.ml" are both the
   Pool_backend module (dune select picks one); strip from the first
   dot so either resolves. *)
let modname_of_path path =
  let base = Filename.basename path in
  let stem =
    match String.index_opt base '.' with
    | Some i -> String.sub base 0 i
    | None -> base
  in
  String.capitalize_ascii stem

(* --- codec ------------------------------------------------------- *)

let csv_or_dash = function [] -> "-" | l -> String.concat "," l

let encode_params params =
  csv_or_dash (List.map (fun l -> if l = "" then "_" else l) params)

let decode_params = function
  | "-" -> []
  | s ->
      List.map
        (fun l -> if l = "_" then "" else l)
        (String.split_on_char ',' s)

let encode_mut_params l = csv_or_dash (List.map string_of_int l)

let encode_argtok = function
  | Arg_param i -> "p" ^ string_of_int i
  | Arg_shared -> "s"
  | Arg_other -> "o"

let encode_args args =
  csv_or_dash
    (List.map (fun (l, r) -> l ^ ":" ^ encode_argtok r) args)

exception Malformed of string

let fail what = raise (Malformed what)

let decode_int s =
  match int_of_string_opt s with Some i -> i | None -> fail ("bad int " ^ s)

let decode_bool s =
  match bool_of_string_opt s with
  | Some b -> b
  | None -> fail ("bad bool " ^ s)

let decode_mut_params = function
  | "-" -> []
  | s -> List.map decode_int (String.split_on_char ',' s)

let decode_argtok = function
  | "s" -> Arg_shared
  | "o" -> Arg_other
  | t ->
      if String.length t >= 2 && t.[0] = 'p' then
        Arg_param (decode_int (String.sub t 1 (String.length t - 1)))
      else fail ("bad argtok " ^ t)

let decode_args = function
  | "-" -> []
  | s ->
      List.map
        (fun field ->
          match String.rindex_opt field ':' with
          | Some i ->
              ( String.sub field 0 i,
                decode_argtok
                  (String.sub field (i + 1) (String.length field - i - 1)) )
          | None -> fail ("bad arg " ^ field))
        (String.split_on_char ',' s)

let encode (t : t) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "wgrap-lint-summary %d" version;
  line "digest %s" t.digest;
  line "path %s" t.path;
  line "module %s" t.modname;
  List.iter (fun r -> line "fallow %s" r) t.file_allows;
  let encode_origin pfx (o : origin) =
    line "%sorigin %d %d %s" pfx (Effects.bit o.oeffect) o.oline o.oident
  in
  let encode_callee pfx (c : callee) =
    line "%scall %d %s %s" pfx c.cline (encode_args c.args) c.target
  in
  List.iter
    (fun v ->
      line "value %d %d %s %s %s" v.vline
        (Effects.Set.mask v.info.effects)
        (encode_params v.params)
        (encode_mut_params v.info.mut_params)
        v.vname;
      List.iter (fun r -> line "allow %s" r) v.vallows;
      List.iter (encode_origin "") v.info.origins;
      List.iter (encode_callee "") v.info.callees;
      List.iter
        (fun s ->
          line "spawn %d %b %d %s %s" s.sline s.allowed
            (Effects.Set.mask s.sbody.effects)
            (encode_mut_params s.sbody.mut_params)
            s.pool_fn;
          List.iter (encode_origin "s") s.sbody.origins;
          List.iter (encode_callee "s") s.sbody.callees)
        v.spawns)
    t.values;
  Buffer.contents b

let decode (text : string) : t =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let words l = String.split_on_char ' ' l in
  let header, rest =
    match lines with h :: rest -> (h, rest) | [] -> fail "empty summary"
  in
  (match words header with
  | [ "wgrap-lint-summary"; v ] when int_of_string_opt v = Some version -> ()
  | _ -> fail "version mismatch");
  let digest = ref "" and path = ref "" and modname = ref "" in
  let file_allows = ref [] in
  let values = ref [] in
  let cur_value = ref None in
  let cur_spawn = ref None in
  let flush_spawn () =
    match (!cur_spawn, !cur_value) with
    | Some s, Some v ->
        let s =
          { s with
            sbody =
              { s.sbody with
                origins = List.rev s.sbody.origins;
                callees = List.rev s.sbody.callees } }
        in
        cur_value := Some { v with spawns = s :: v.spawns };
        cur_spawn := None
    | Some _, None -> fail "spawn outside value"
    | None, _ -> ()
  in
  let flush_value () =
    flush_spawn ();
    match !cur_value with
    | Some v ->
        values :=
          { v with
            vallows = List.rev v.vallows;
            spawns = List.rev v.spawns;
            info =
              { v.info with
                origins = List.rev v.info.origins;
                callees = List.rev v.info.callees } }
          :: !values;
        cur_value := None
    | None -> ()
  in
  let origin_of eff ln id =
    match Effects.Set.to_list (Effects.Set.of_mask (decode_int eff)) with
    | [ e ] -> { oeffect = e; oline = decode_int ln; oident = id }
    | _ -> fail "bad origin effect"
  in
  let add_origin o info = { info with origins = o :: info.origins } in
  let add_callee c info = { info with callees = c :: info.callees } in
  List.iter
    (fun l ->
      match words l with
      | [ "digest"; d ] -> digest := d
      | [ "path"; p ] -> path := p
      | [ "module"; m ] -> modname := m
      | [ "fallow"; r ] -> file_allows := r :: !file_allows
      | [ "value"; ln; mask; params; mutp; name ] ->
          flush_value ();
          cur_value :=
            Some
              {
                vname = name;
                vline = decode_int ln;
                vallows = [];
                params = decode_params params;
                info =
                  {
                    effects = Effects.Set.of_mask (decode_int mask);
                    mut_params = decode_mut_params mutp;
                    origins = [];
                    callees = [];
                  };
                spawns = [];
              }
      | [ "allow"; r ] -> (
          match !cur_value with
          | Some v -> cur_value := Some { v with vallows = r :: v.vallows }
          | None -> fail "allow outside value")
      | [ "spawn"; ln; allowed; mask; mutp; fn ] ->
          flush_spawn ();
          (match !cur_value with
          | None -> fail "spawn outside value"
          | Some _ ->
              cur_spawn :=
                Some
                  {
                    sline = decode_int ln;
                    pool_fn = fn;
                    allowed = decode_bool allowed;
                    sbody =
                      {
                        effects = Effects.Set.of_mask (decode_int mask);
                        mut_params = decode_mut_params mutp;
                        origins = [];
                        callees = [];
                      };
                  })
      | [ "origin"; eff; ln; id ] -> (
          match !cur_value with
          | Some v ->
              cur_value :=
                Some { v with info = add_origin (origin_of eff ln id) v.info }
          | None -> fail "origin outside value")
      | [ "sorigin"; eff; ln; id ] -> (
          match !cur_spawn with
          | Some s ->
              cur_spawn :=
                Some { s with sbody = add_origin (origin_of eff ln id) s.sbody }
          | None -> fail "sorigin outside spawn")
      | [ "call"; ln; args; target ] -> (
          let c = { target; cline = decode_int ln; args = decode_args args } in
          match !cur_value with
          | Some v -> cur_value := Some { v with info = add_callee c v.info }
          | None -> fail "call outside value")
      | [ "scall"; ln; args; target ] -> (
          let c = { target; cline = decode_int ln; args = decode_args args } in
          match !cur_spawn with
          | Some s -> cur_spawn := Some { s with sbody = add_callee c s.sbody }
          | None -> fail "scall outside spawn")
      | _ -> fail ("unrecognized line: " ^ l))
    rest;
  flush_value ();
  if !digest = "" || !modname = "" then fail "missing header fields";
  {
    digest = !digest;
    path = !path;
    modname = !modname;
    file_allows = List.rev !file_allows;
    values = List.rev !values;
  }
