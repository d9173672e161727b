(* Phase 1 of the interprocedural analysis: walk one parsed
   implementation and produce its {!Summary.t} — per top-level value,
   the direct effects, the parameters it writes through, its call
   edges (with argument roots), and every closure it hands to the
   {!Wgrap_par.Pool}.

   The analysis is scope-tracked but purely syntactic: a mutation
   primitive applied to a root identifier is classified by where that
   root is bound — inside the current function (no observable effect),
   as one of its parameters (mutates-argument, by index), or not at all
   (mutates-global: module state, another module, or a binding captured
   from an enclosing scope). Inside a Pool closure the scope barrier is
   the closure itself, so coordinator locals count as shared — exactly
   the property the domain-race rule needs. *)

open Ppxlib

type kind = Param of int | Local

(* Mutable accumulation for one function-like body. *)
type acc = {
  mutable effects : Effects.Set.t;
  mutable mut_params : int list;
  mutable origins : Summary.origin list;
  mutable callees : Summary.callee list;
}

let fresh_acc () =
  { effects = Effects.Set.empty; mut_params = []; origins = []; callees = [] }

let finish_acc (a : acc) : Summary.funinfo =
  {
    effects = a.effects;
    mut_params = List.sort_uniq Int.compare a.mut_params;
    origins = List.rev a.origins;
    callees = List.rev a.callees;
  }

let last_part txt = List.hd (List.rev (Longident.flatten_exn txt))
let parts_of txt = Longident.flatten_exn txt

(* --- primitive effect tables ------------------------------------- *)

(* Identifier occurrences that perform I/O wherever they appear. *)
let io_ident parts =
  match parts with
  | [ single ] ->
      let prefixes = [ "print_"; "prerr_"; "output"; "input"; "really_input" ] in
      List.mem single
        [ "read_line"; "open_out"; "open_out_bin"; "open_out_gen"; "open_in";
          "open_in_bin"; "open_in_gen"; "close_out"; "close_out_noerr";
          "close_in"; "close_in_noerr"; "flush"; "flush_all"; "exit";
          "at_exit"; "input_line"; "input_value"; "output_value" ]
      || List.exists
           (fun p ->
             String.length single >= String.length p
             && String.sub single 0 (String.length p) = p)
           prefixes
  | [ "Printf"; ("printf" | "eprintf" | "fprintf") ] -> true
  | [ "Format"; ("printf" | "eprintf" | "fprintf" | "print_string") ] -> true
  | "Unix" :: _ :: _ -> true
  | [ "Sys"; m ] ->
      List.mem m
        [ "command"; "remove"; "rename"; "readdir"; "mkdir"; "rmdir";
          "getcwd"; "chdir"; "file_exists"; "is_directory" ]
  | ("Out_channel" | "In_channel") :: _ :: _ -> true
  | [ "Filename"; ("temp_file" | "open_temp_file" | "temp_dir") ] -> true
  | [ "Digest"; "file" ] -> true
  | _ -> false

(* Identifier occurrences that read a nondeterministic source: an
   unspecified iteration order, a wall clock, the environment, or the
   unseeded stdlib RNG. *)
let nondet_ident parts =
  match parts with
  | [ "Hashtbl"; m ] | [ "Stdlib"; "Hashtbl"; m ] ->
      List.mem m [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]
  | "Random" :: _ :: _ | [ "Stdlib"; "Random"; _ ] -> true
  | [ "Sys"; ("time" | "getenv" | "getenv_opt") ] -> true
  | [ "Unix"; ("gettimeofday" | "time" | "times" | "getpid") ] -> true
  | [ "Filename"; ("temp_file" | "open_temp_file") ] -> true
  | [ "Domain"; "self" ] -> true
  | _ -> false

(* Timer polls: Timer.check* / Timer.expired* behind any alias path. *)
let polls_ident parts =
  let prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  match List.rev parts with
  | member :: "Timer" :: _ -> prefix "check" member || prefix "expired" member
  | _ -> false

(* In-place mutation primitives: which positional argument is the
   mutated structure. [`Indexed] marks array-like writes that are
   task-partitionable (exempt inside a Pool closure when some other
   argument is rooted at the task parameter). *)
let mutator parts =
  match parts with
  | [ ":=" ] -> Some (0, `Plain)
  | [ ("incr" | "decr") ] -> Some (0, `Plain)
  | [ ("Array" | "Bytes" | "Float" | "Floatarray"); ("set" | "unsafe_set") ]
  | [ "Float"; "Array"; ("set" | "unsafe_set") ] ->
      Some (0, `Indexed)
  | [ ("Array" | "Bytes"); "fill" ] -> Some (0, `Indexed)
  | [ ("Array" | "Bytes"); "blit" ] -> Some (2, `Indexed)
  | [ ("Array" | "Bytes"); ("sort" | "stable_sort" | "fast_sort") ] ->
      Some (1, `Plain)
  | [ "Bigarray"; ("Array1" | "Array2" | "Array3" | "Genarray");
      ("set" | "unsafe_set" | "fill") ]
  | [ ("Array1" | "Array2" | "Array3" | "Genarray");
      ("set" | "unsafe_set" | "fill") ] ->
      Some (0, `Indexed)
  | [ "Bigarray"; ("Array1" | "Array2" | "Array3" | "Genarray"); "blit" ]
  | [ ("Array1" | "Array2" | "Array3" | "Genarray"); "blit" ] ->
      Some (1, `Indexed)
  | [ "Hashtbl";
      ( "add" | "replace" | "remove" | "reset" | "clear"
      | "filter_map_inplace" ) ] ->
      Some ((if parts = [ "Hashtbl"; "filter_map_inplace" ] then 1 else 0),
            `Plain)
  | [ "Queue"; ("add" | "push") ] | [ "Stack"; "push" ] -> Some (1, `Plain)
  | [ "Queue"; ("pop" | "take" | "clear" | "transfer") ]
  | [ "Stack"; ("pop" | "clear") ] ->
      Some (0, `Plain)
  | [ "Buffer"; m ] ->
      if
        List.mem m [ "clear"; "reset"; "truncate" ]
        || (String.length m >= 4 && String.sub m 0 4 = "add_")
      then Some (0, `Plain)
      else None
  | [ "Atomic"; ("set" | "exchange" | "incr" | "decr" | "compare_and_set"
                | "fetch_and_add") ] ->
      Some (0, `Plain)
  | _ -> None

(* --- the walker --------------------------------------------------- *)

type state = {
  mutable env : (string * kind) list list;  (* innermost frame first *)
  mutable allow_stack : string list list;
  mutable acc : acc;
  mutable spawns : Summary.spawn list;  (* of the current top-level value *)
  mutable in_spawn : bool;
  mutable no_spawn : bool;  (* transparent re-walk: don't re-record spawns *)
  file_allows : string list;
}

let allowed st rule =
  List.mem rule st.file_allows
  || List.exists (List.mem rule) st.allow_stack

let lookup st name =
  let rec go = function
    | [] -> None
    | frame :: rest -> (
        match List.assoc_opt name frame with
        | Some k -> Some k
        | None -> go rest)
  in
  go st.env

let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pat_vars p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) -> pat_vars p
  | Ppat_record (fields, _) ->
      List.concat_map (fun (_, p) -> pat_vars p) fields
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_exception p
  | Ppat_open (_, p) ->
      pat_vars p
  | _ -> []

(* The root identifier of an lvalue / argument expression, skipping
   field projections, derefs and indexing reads. *)
let rec root_of (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident n; _ } -> Some n
  | Pexp_ident { txt = Ldot _; _ } -> Some "."  (* qualified: shared *)
  | Pexp_field (e, _) -> root_of e
  | Pexp_constraint (e, _) -> root_of e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, a) :: _) -> (
      match parts_of txt with
      | [ "!" ]
      | [ ("Array" | "Bytes" | "String" | "Float" | "Floatarray");
          ("get" | "unsafe_get") ]
      | [ "Bigarray"; ("Array1" | "Array2" | "Array3" | "Genarray");
          ("get" | "unsafe_get") ]
      | [ ("Array1" | "Array2" | "Array3" | "Genarray");
          ("get" | "unsafe_get") ]
      | [ "Atomic"; "get" ] ->
          root_of a
      | _ -> None)
  | _ -> None

(* Inside a spawn closure, [x.(i)] (or any indexed get) whose index is
   rooted at a task parameter projects out the task's own slot of a
   structure partitioned by task index — task-private under the Pool's
   documented sharing contract (chain_rngs.(c), buffers.(i), ...). *)
let task_slot st (e : expression) =
  st.in_spawn
  &&
  match e.pexp_desc with
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (Nolabel, _) :: idxs) ->
      (match parts_of txt with
      | [ ("Array" | "Bytes" | "String" | "Float" | "Floatarray");
          ("get" | "unsafe_get") ]
      | [ "Bigarray"; ("Array1" | "Array2" | "Array3" | "Genarray");
          ("get" | "unsafe_get") ]
      | [ ("Array1" | "Array2" | "Array3" | "Genarray");
          ("get" | "unsafe_get") ] ->
          true
      | _ -> false)
      && List.exists
           (fun (_, ix) ->
             match root_of ix with
             | Some n -> (
                 match lookup st n with Some (Param _) -> true | _ -> false)
             | None -> false)
           idxs
  | _ -> false

(* Classify an expression's root for call-argument purposes. *)
let argroot st (e : expression) : Summary.argroot =
  if task_slot st e then Arg_other
  else
    match root_of e with
  | None -> Arg_other
  | Some "." -> Arg_shared
  | Some n -> (
      match lookup st n with
      | Some (Param i) -> Arg_param i
      | Some Local -> Arg_other
      | None -> Arg_shared)

let record_effect st ~loc eff ident =
  let a = st.acc in
  if not (Effects.Set.mem eff a.effects) then begin
    a.effects <- Effects.Set.add eff a.effects;
    a.origins <-
      { Summary.oeffect = eff; oline = loc.Location.loc_start.pos_lnum;
        oident = ident }
      :: a.origins
  end

let record_mut_param st i =
  let a = st.acc in
  if not (List.mem i a.mut_params) then a.mut_params <- i :: a.mut_params;
  if not (Effects.Set.mem Effects.Mut_arg a.effects) then
    a.effects <- Effects.Set.add Effects.Mut_arg a.effects

(* A write whose target root is [root]. *)
let record_write st ~loc ident (e : expression) =
  match root_of e with
  | None -> ()  (* fresh / opaque structure: not observable *)
  | Some "." -> record_effect st ~loc Effects.Mut_global ident
  | Some n -> (
      match lookup st n with
      | Some Local -> ()
      | Some (Param i) ->
          record_mut_param st i;
          let a = st.acc in
          if
            not
              (List.exists
                 (fun (o : Summary.origin) -> o.oeffect = Effects.Mut_arg)
                 a.origins)
          then
            a.origins <-
              { Summary.oeffect = Effects.Mut_arg;
                oline = loc.Location.loc_start.pos_lnum; oident = n }
              :: a.origins
      | None -> record_effect st ~loc Effects.Mut_global n)

let is_lower_ident n =
  n <> "" && (match n.[0] with 'a' .. 'z' | '_' -> true | _ -> false)

(* Record a call edge for a reference to [txt], with optional argument
   roots when it is the head of an application. *)
let record_callee st ~loc txt (args : (string * Summary.argroot) list) =
  let parts = parts_of txt in
  let target =
    match parts with
    | [ n ] when is_lower_ident n && lookup st n = None -> Some n
    | _ :: _ :: _
      when (match parts with
           | m :: _ -> m <> "" && m.[0] >= 'A' && m.[0] <= 'Z'
           | [] -> false) ->
        Some (String.concat "." parts)
    | _ -> None
  in
  match target with
  | None -> ()
  | Some target ->
      st.acc.callees <-
        { Summary.target; cline = loc.Location.loc_start.pos_lnum; args }
        :: st.acc.callees

let label_string = function
  | Nolabel -> ""
  | Labelled l -> l
  | Optional l -> "?" ^ l

(* Parameters of a function expression: labels in order, skipping
   newtypes. Returns the bindable (name, index) pairs too. *)
let params_of (params : function_param list) =
  let labels = ref [] and binds = ref [] and i = ref 0 in
  List.iter
    (fun p ->
      match p.pparam_desc with
      | Pparam_val (lbl, _, pat) ->
          labels := label_string lbl :: !labels;
          List.iter (fun n -> binds := (n, Param !i) :: !binds) (pat_vars pat);
          incr i
      | Pparam_newtype _ -> ())
    params;
  (List.rev !labels, List.rev !binds)

let visitor st =
  object (self)
    inherit Ast_traverse.iter as super

    method private frame : 'a. (string * kind) list -> (unit -> 'a) -> 'a =
      fun binds f ->
        st.env <- binds :: st.env;
        let r = f () in
        st.env <- List.tl st.env;
        r

    method private with_allows : 'a. string list -> (unit -> 'a) -> 'a =
      fun allows f ->
        st.allow_stack <- allows :: st.allow_stack;
        let r = f () in
        st.allow_stack <- List.tl st.allow_stack;
        r

    method private walk_case c =
      Option.iter self#expression c.pc_guard;
      self#frame
        (List.map (fun n -> (n, Local)) (pat_vars c.pc_lhs))
        (fun () -> self#expression c.pc_rhs)

    method private walk_let rf vbs body =
      let binds =
        List.concat_map
          (fun vb -> List.map (fun n -> (n, Local)) (pat_vars vb.pvb_pat))
          vbs
      in
      let visit_bindings () =
        List.iter
          (fun vb ->
            self#with_allows
              (Allow.rule_names vb.pvb_attributes)
              (fun () -> self#expression vb.pvb_expr))
          vbs
      in
      match rf with
      | Recursive ->
          self#frame binds (fun () ->
              visit_bindings ();
              Option.iter self#expression body)
      | Nonrecursive ->
          visit_bindings ();
          Option.iter
            (fun b -> self#frame binds (fun () -> self#expression b))
            body

    method private walk_fn_defaults params =
      (* Default expressions evaluate in the enclosing scope. *)
      List.iter
        (fun p ->
          match p.pparam_desc with
          | Pparam_val (_, Some d, _) -> self#expression d
          | _ -> ())
        params

    method private walk_fn_body =
      function
      | Pfunction_body e -> self#expression e
      | Pfunction_cases (cases, _, _) -> List.iter self#walk_case cases

    (* Summarize a closure handed to the pool: fresh accumulator, and a
       scope barrier — only the closure's own parameters are in scope,
       so everything captured classifies as shared. *)
    method private spawn_closure ~loc ~pool_fn (e : expression) =
      let saved_acc = st.acc and saved_env = st.env in
      let saved_spawn = st.in_spawn in
      st.acc <- fresh_acc ();
      st.in_spawn <- true;
      (match e.pexp_desc with
      | Pexp_function (params, _, body) ->
          let _, binds = params_of params in
          st.env <- [ binds ];
          self#walk_fn_body body
      | Pexp_ident { txt; _ } ->
          st.env <- [ [] ];
          record_callee st ~loc:e.pexp_loc txt []
      | _ ->
          st.env <- [ [] ];
          self#expression e);
      let sbody = finish_acc st.acc in
      st.acc <- saved_acc;
      st.env <- saved_env;
      st.in_spawn <- saved_spawn;
      st.spawns <-
        {
          Summary.sline = loc.Location.loc_start.pos_lnum;
          pool_fn;
          allowed = allowed st "domain-race";
          sbody;
        }
        :: st.spawns;
      (* Re-walk the closure transparently — in the enclosing scope,
         with spawn detection off — so its effects and call edges also
         count toward the enclosing value: a caller of that value does
         observe whatever the tasks do. The barrier view above is kept
         only for the race check itself. *)
      let saved_ns = st.no_spawn in
      st.no_spawn <- true;
      self#expression e;
      st.no_spawn <- saved_ns

    method! expression e =
      self#with_allows (Allow.rule_names e.pexp_attributes) (fun () ->
          self#walk_expr e)

    method private walk_expr e =
      let loc = e.pexp_loc in
      match e.pexp_desc with
      | Pexp_ident { txt; _ } ->
          let parts = parts_of txt in
          if io_ident parts then
            record_effect st ~loc Effects.Io (String.concat "." parts);
          if nondet_ident parts && not (allowed st "nondet-reach") then
            record_effect st ~loc Effects.Nondet (String.concat "." parts);
          if polls_ident parts then begin
            record_effect st ~loc Effects.Polls_deadline
              (String.concat "." parts);
            record_effect st ~loc Effects.Raises_expired
              (String.concat "." parts)
          end;
          record_callee st ~loc txt []
      | Pexp_construct ({ txt; _ }, arg) ->
          (match List.rev (parts_of txt) with
          | "Expired" :: _ ->
              record_effect st ~loc Effects.Raises_expired
                (String.concat "." (parts_of txt))
          | _ -> ());
          Option.iter self#expression arg
      | Pexp_function (params, _, body) ->
          self#walk_fn_defaults params;
          let _, binds = params_of params in
          (* Parameters of closures nested below the top-level value's
             own parameter list are locals from the caller's point of
             view. *)
          let binds =
            if List.length st.env <= 1 && not st.in_spawn then binds
            else List.map (fun (n, _) -> (n, Local)) binds
          in
          self#frame binds (fun () -> self#walk_fn_body body)
      | Pexp_let (rf, vbs, body) -> self#walk_let rf vbs (Some body)
      | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
          self#expression scrut;
          List.iter self#walk_case cases
      | Pexp_for (pat, e1, e2, _, body) ->
          self#expression e1;
          self#expression e2;
          self#frame
            (List.map (fun n -> (n, Local)) (pat_vars pat))
            (fun () -> self#expression body)
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Lident "@@"; _ }; _ },
            [ (Nolabel, f); (Nolabel, x) ] )
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ },
            [ (Nolabel, x); (Nolabel, f) ] ) ->
          (* Normalize pipes so [f @@ x] / [x |> f] record the same call
             edge as [f x]. *)
          let desc =
            match f.pexp_desc with
            | Pexp_apply (h, args0) -> Pexp_apply (h, args0 @ [ (Nolabel, x) ])
            | _ -> Pexp_apply (f, [ (Nolabel, x) ])
          in
          self#walk_expr { e with pexp_desc = desc }
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc = floc; _ },
                    args) -> (
          let parts = parts_of txt in
          (* Head-identifier effects (Hashtbl.iter as the function). *)
          if io_ident parts then
            record_effect st ~loc:floc Effects.Io (String.concat "." parts);
          if nondet_ident parts && not (allowed st "nondet-reach") then
            record_effect st ~loc:floc Effects.Nondet (String.concat "." parts);
          if polls_ident parts then begin
            record_effect st ~loc:floc Effects.Polls_deadline
              (String.concat "." parts);
            record_effect st ~loc:floc Effects.Raises_expired
              (String.concat "." parts)
          end;
          (* Deadline forwarding. *)
          if
            List.exists
              (fun (l, _) ->
                match l with
                | Labelled ("deadline" | "ctx") | Optional ("deadline" | "ctx")
                  ->
                    true
                | _ -> false)
              args
          then
            record_effect st ~loc:floc Effects.Forwards_deadline
              (String.concat "." parts);
          (* Pool spawn sites. *)
          let nolabel =
            List.filter_map
              (fun (l, a) -> if l = Nolabel then Some a else None)
              args
          in
          match List.rev parts with
          | fn :: "Pool" :: _
            when List.mem fn Lint_config.pool_spawn_fns && not st.no_spawn -> (
              match nolabel with
              | pool :: tasks ->
                  self#expression pool;
                  List.iter
                    (fun (l, a) ->
                      if l <> Nolabel then self#expression a)
                    args;
                  List.iter
                    (fun t ->
                      match t.pexp_desc with
                      | Pexp_function _ | Pexp_ident _ ->
                          self#spawn_closure ~loc:floc ~pool_fn:fn t
                      | _ -> self#expression t)
                    tasks
              | [] -> List.iter (fun (_, a) -> self#expression a) args)
          | _ ->
              (* In-place mutation primitives. *)
              (match mutator parts with
              | Some (pos, shape) when List.length nolabel > pos ->
                  let target = List.nth nolabel pos in
                  let partitioned =
                    st.in_spawn && shape = `Indexed
                    && List.exists
                         (fun a ->
                           a != target
                           &&
                           match argroot st a with
                           | Summary.Arg_param _ -> true
                           | _ -> false)
                         nolabel
                  in
                  if not partitioned then
                    record_write st ~loc:floc (String.concat "." parts) target
              | _ -> ());
              (* Call edge with argument roots. *)
              record_callee st ~loc:floc txt
                (List.map (fun (l, a) -> (label_string l, argroot st a)) args);
              List.iter (fun (_, a) -> self#expression a) args)
      | Pexp_setfield (obj, { txt = fld; _ }, v) ->
          record_write st ~loc ("<-" ^ last_part fld) obj;
          self#expression obj;
          self#expression v
      | Pexp_setinstvar (_, v) ->
          record_effect st ~loc Effects.Mut_global "<-instance-var";
          self#expression v
      | Pexp_letmodule (_, me, body) ->
          super#module_expr me;
          self#expression body
      | _ -> super#expression_desc e.pexp_desc
  end

(* --- structure driver --------------------------------------------- *)

let unit_name (vb : value_binding) =
  Printf.sprintf "<unit:%d>" vb.pvb_loc.loc_start.pos_lnum

let summarize_value st ~prefix (vb : value_binding) : Summary.value list =
  let names =
    match pat_vars vb.pvb_pat with [] -> [ unit_name vb ] | ns -> ns
  in
  st.acc <- fresh_acc ();
  st.spawns <- [];
  st.env <- [];
  let v = visitor st in
  let params =
    match vb.pvb_expr.pexp_desc with
    | Pexp_function (ps, _, _) -> fst (params_of ps)
    | _ -> []
  in
  (st.allow_stack <- [ Allow.rule_names vb.pvb_attributes ]);
  v#expression vb.pvb_expr;
  let info = finish_acc st.acc in
  let spawns = List.rev st.spawns in
  let vallows = Allow.rule_names vb.pvb_attributes in
  let vline = vb.pvb_loc.loc_start.pos_lnum in
  List.map
    (fun n ->
      {
        Summary.vname = prefix ^ n;
        vline;
        vallows;
        params;
        info;
        spawns;
      })
    names

let rec summarize_items st ~prefix (items : structure) : Summary.value list =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.concat_map (summarize_value st ~prefix) vbs
      | Pstr_module mb -> summarize_module st ~prefix mb
      | Pstr_recmodule mbs ->
          List.concat_map (summarize_module st ~prefix) mbs
      | _ -> [])
    items

and summarize_module st ~prefix (mb : module_binding) =
  let sub =
    match mb.pmb_name.txt with Some n -> prefix ^ n ^ "." | None -> prefix
  in
  let rec of_mod (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure items -> summarize_items st ~prefix:sub items
    | Pmod_functor (_, body) -> of_mod body
    | Pmod_constraint (me, _) -> of_mod me
    | _ -> []
  in
  of_mod mb.pmb_expr

let structure ~path (str : structure) : Summary.t =
  let file_allows = Allow.structure_allows str in
  let st =
    {
      env = [];
      allow_stack = [];
      acc = fresh_acc ();
      spawns = [];
      in_spawn = false;
      no_spawn = false;
      file_allows;
    }
  in
  {
    Summary.path;
    modname = Summary.modname_of_path path;
    file_allows;
    values = summarize_items st ~prefix:"" str;
  }
