(* Phase-1 output: one effect summary per compilation unit, listing
   every top-level value's direct effects, parameter-mutation set, call
   edges (with argument bindings) and Pool spawn sites. Phase 2 stitches
   the summaries of every parsed module into the whole-program call
   graph (see {!Callgraph}). *)

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
