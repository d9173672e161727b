(* The expression-level lint rules. Each rule is a named check invoked on
   every expression node of every checked [.ml]; findings route through
   {!Ctx.report}, which consults the [@wgrap.allow] scopes in force.
   The file-level deadline-discipline rule lives in {!Rule_deadline}. *)

open Ppxlib

type t = { name : string; check : Ctx.t -> expression -> unit }

(* 1. no-wall-clock: Unix.gettimeofday/Unix.time/Sys.time jump under NTP
   adjustment; budgets and timings must use the monotonic Timer. *)
let wall_clock =
  let check ctx (e : expression) =
    if not (Lint_path.matches_any ~suffixes:Lint_config.wall_clock_owners ctx.Ctx.file)
    then
      match e.pexp_desc with
      | Pexp_ident { txt = Ldot (Lident "Unix", ("gettimeofday" | "time")); loc }
      | Pexp_ident { txt = Ldot (Lident "Sys", "time"); loc } ->
          Ctx.report ctx ~loc ~rule:"wall-clock"
            "wall-clock read; deadlines and timings must use the monotonic \
             Wgrap_util.Timer (Timer.now / Timer.deadline)"
      | _ -> ()
  in
  { name = "wall-clock"; check }

(* 2. no-raw-random: the stdlib Random state is invisible to checkpoints;
   bit-exact resume requires every draw to come from Wgrap_util.Rng. *)
let raw_random =
  let check ctx (e : expression) =
    if not (Lint_path.matches_any ~suffixes:Lint_config.random_owners ctx.Ctx.file)
    then
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match Longident.flatten_exn txt with
          | "Random" :: _ :: _ ->
              Ctx.report ctx ~loc ~rule:"raw-random"
                "stdlib Random breaks bit-exact checkpoint replay; draw from \
                 Wgrap_util.Rng instead"
          | _ -> ())
      | _ -> ()
  in
  { name = "raw-random"; check }

(* 3. no-silent-catch: a catch-all handler must re-raise or at least
   route the exception through Solver.describe_exn so faults surface in
   degradation reports instead of vanishing. *)
let silent_catch =
  let handler_surfaces body =
    let found = ref false in
    let it =
      object
        inherit Ast_traverse.iter as super

        method! expression e =
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match Longident.flatten_exn txt with
              | [ ("raise" | "raise_notrace" | "reraise") ]
              | [ "Printexc"; "raise_with_backtrace" ] ->
                  found := true
              | parts -> (
                  match List.rev parts with
                  | "describe_exn" :: _ -> found := true
                  | _ -> ()))
          | _ -> ());
          super#expression e
      end
    in
    it#expression body;
    !found
  in
  let check ctx (e : expression) =
    match e.pexp_desc with
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            let catch_all =
              match c.pc_lhs.ppat_desc with
              | Ppat_any | Ppat_var _ -> true
              | Ppat_alias ({ ppat_desc = Ppat_any; _ }, _) -> true
              | _ -> false
            in
            if catch_all && c.pc_guard = None && not (handler_surfaces c.pc_rhs)
            then
              Ctx.report ctx ~loc:c.pc_lhs.ppat_loc ~rule:"silent-catch"
                "catch-all handler swallows the exception; re-raise it or \
                 record it via Solver.describe_exn")
          cases
    | _ -> ()
  in
  { name = "silent-catch"; check }

(* 4. no-poly-compare: polymorphic compare/min/max on floats orders NaN
   inconsistently (compare nan x = -1 but nan < x is false), corrupting
   heap and sort invariants. Force the monomorphic Float.* versions. *)
let poly_compare =
  let check ctx (e : expression) =
    match e.pexp_desc with
    | Pexp_apply
        ( {
            pexp_desc =
              Pexp_ident { txt = Lident (("compare" | "min" | "max") as fn); loc };
            _;
          },
          args )
      when List.exists (fun (_, a) -> Floatish.is a) args ->
        Ctx.report ctx ~loc ~rule:"poly-compare"
          (Printf.sprintf
             "polymorphic %s on float operands is NaN-unsound; use Float.%s"
             fn fn)
    | _ -> ()
  in
  { name = "poly-compare"; check }

(* 5. no-float-eq: literal (=)/(<>) between float expressions. Exact
   float equality is almost always a rounding bug; where exactness is
   really meant (sentinel zeros), Float.equal states the intent and
   survives this lint. *)
let float_eq =
  let check ctx (e : expression) =
    match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); loc }; _ },
          [ (Nolabel, a); (Nolabel, b) ] )
      when Floatish.is a || Floatish.is b ->
        Ctx.report ctx ~loc ~rule:"float-eq"
          (Printf.sprintf
             "polymorphic %s on a float expression; use Float.equal for \
              exact sentinels or compare against a tolerance"
             op)
    | _ -> ()
  in
  { name = "float-eq"; check }

(* 6. no-unsafe-outside-kernel: bounds-check elision is allowed only in
   the allowlisted sparse kernels whose index ranges are proven by
   construction. *)
let unsafe_array =
  let check ctx (e : expression) =
    if not (Lint_path.matches_any ~suffixes:Lint_config.unsafe_owners ctx.Ctx.file)
    then
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match Longident.flatten_exn txt with
          | [ ("Array" | "Bytes" | "String"); member ]
            when String.length member >= 7
                 && String.sub member 0 7 = "unsafe_" ->
              Ctx.report ctx ~loc ~rule:"unsafe-array"
                "bounds-check elision outside the allowlisted sparse kernels \
                 (lib/core/scoring.ml, lib/core/gain_matrix.ml)"
          | _ -> ())
      | _ -> ()
  in
  { name = "unsafe-array"; check }

(* 7. unbounded-retry: two shapes that turn a transient fault into a
   hang. (a) A recursive retry loop with no visible bound — a [let rec]
   whose name says retry/reconnect/reopen/resend but whose body never
   mentions an attempt counter, backoff, cap, or deadline. (b) A raw
   blocking read inside the service event loop: everything under
   lib/serve must take input through Transport, which threads a
   Timer deadline through Unix.select; input_line / Unix.read / accept
   anywhere else in serve code can block forever and stall the loop. *)
let unbounded_retry =
  let contains ~sub s =
    let ls = String.length s and lb = String.length sub in
    let rec scan i = i + lb <= ls && (String.sub s i lb = sub || scan (i + 1)) in
    scan 0
  in
  let retryish name =
    let name = String.lowercase_ascii name in
    List.exists (fun sub -> contains ~sub name)
      [ "retry"; "reconnect"; "reopen"; "resend" ]
  in
  let bound_words =
    [ "attempt"; "backoff"; "cap"; "deadline"; "budget"; "tries"; "remaining";
      "max"; "limit"; "restarts" ]
  in
  let mentions_bound body =
    let found = ref false in
    let it =
      object
        inherit Ast_traverse.iter as super

        method! expression e =
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
              let last = List.hd (List.rev (Longident.flatten_exn txt)) in
              let last = String.lowercase_ascii last in
              if List.exists (fun sub -> contains ~sub last) bound_words then
                found := true
          | _ -> ());
          super#expression e

        method! pattern p =
          (match p.ppat_desc with
          | Ppat_var { txt; _ } ->
              let txt = String.lowercase_ascii txt in
              if List.exists (fun sub -> contains ~sub txt) bound_words then
                found := true
          | _ -> ());
          super#pattern p
      end
    in
    it#expression body;
    !found
  in
  let is_serve_file file =
    (List.exists (fun dir -> Lint_path.contains_dir ~dir file)
       Lint_config.serve_dirs
    || Lint_path.matches_any ~suffixes:!Lint_config.extra_serve_modules file)
    && not
         (Lint_path.matches_any ~suffixes:Lint_config.serve_transport_owners
            file)
  in
  let check ctx (e : expression) =
    (match e.pexp_desc with
    | Pexp_let (Recursive, bindings, _) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; loc } when retryish txt ->
                if not (mentions_bound vb.pvb_expr) then
                  Ctx.report ctx ~loc ~rule:"unbounded-retry"
                    (Printf.sprintf
                       "recursive retry loop '%s' has no visible bound; cap \
                        the attempts or thread a Timer deadline, and back off \
                        between tries"
                       txt)
            | _ -> ())
          bindings
    | _ -> ());
    if is_serve_file ctx.Ctx.file then
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match Longident.flatten_exn txt with
          | [ ("input_line" | "read_line") ]
          | [ "Stdlib"; ("input_line" | "read_line") ]
          | [ "Unix"; ("read" | "accept") ]
          | [ "In_channel"; ("input_line" | "input_all" | "input_char") ] ->
              Ctx.report ctx ~loc ~rule:"unbounded-retry"
                "raw blocking read in service code; route input through \
                 Wgrap_serve.Transport, which bounds every read with a Timer \
                 deadline"
          | _ -> ())
      | _ -> ()
  in
  { name = "unbounded-retry"; check }

(* 8. dense-alloc: an O(papers x reviewers) allocation is the memory
   wall the candidate-pruned Gain_matrix exists to avoid — one flat
   matrix for a 50k-reviewer pool is gigabytes before the solver does
   any work. Heuristic: an [Array.make]/[Array.create_float]/
   [Array.init] whose size is a product of a paperish and a reviewerish
   count, or an [Array.make_matrix]/[Bigarray.*.create] dimensioned by
   one of each. Names count as paperish when they mention "paper" (or
   are the conventional [n_p]) and reviewerish via "reviewer" / [n_r];
   the name is taken from the identifier, record field, or accessor
   call supplying the dimension. *)
let dense_alloc =
  let contains ~sub s =
    let ls = String.length s and lb = String.length sub in
    let rec scan i = i + lb <= ls && (String.sub s i lb = sub || scan (i + 1)) in
    scan 0
  in
  (* The name behind a dimension expression: identifier, field access,
     or the accessor being applied ([Instance.n_papers inst]). *)
  let rec dim_name (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> Some (List.rev (Longident.flatten_exn txt))
    | Pexp_field (_, { txt; _ }) -> Some (List.rev (Longident.flatten_exn txt))
    | Pexp_apply (f, _) -> dim_name f
    | Pexp_constraint (e, _) -> dim_name e
    | _ -> None
  in
  let nameish kind e =
    match dim_name e with
    | Some (last :: _) ->
        let last = String.lowercase_ascii last in
        (match kind with
        | `Paper -> contains ~sub:"paper" last || String.equal last "n_p"
        | `Reviewer -> contains ~sub:"reviewer" last || String.equal last "n_r")
    | _ -> false
  in
  let paper_by_reviewer a b =
    (nameish `Paper a && nameish `Reviewer b)
    || (nameish `Reviewer a && nameish `Paper b)
  in
  (* [a * b] (any nesting side), for Array.make (n_p * n_r). *)
  let rec product_dims (e : expression) =
    match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident "*"; _ }; _ },
          [ (Nolabel, a); (Nolabel, b) ] ) ->
        Some (a, b)
    | Pexp_constraint (e, _) -> product_dims e
    | _ -> None
  in
  let report ctx ~loc =
    Ctx.report ctx ~loc ~rule:"dense-alloc"
      "O(papers x reviewers) dense allocation; stream per-paper \
       candidate-pruned Gain_matrix rows (Ctx.candidates) instead of \
       materializing the full matrix"
  in
  let check ctx (e : expression) =
    if
      not
        (Lint_path.matches_any ~suffixes:Lint_config.dense_alloc_owners
           ctx.Ctx.file)
    then
      match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
          let nolabel =
            List.filter_map
              (fun (l, a) -> if l = Nolabel then Some a else None)
              args
          in
          match (Longident.flatten_exn txt, nolabel) with
          | [ "Array"; ("make" | "create_float" | "init") ], size :: _ -> (
              match product_dims size with
              | Some (a, b) when paper_by_reviewer a b -> report ctx ~loc
              | _ -> ())
          | [ "Array"; "make_matrix" ], a :: b :: _
            when paper_by_reviewer a b ->
              report ctx ~loc
          | parts, _ :: _ :: _
            when (match List.rev parts with
                 (* Bigarray.Array2.create kind layout dim1 dim2:
                    the dimensions are the last two arguments. *)
                 | "create" :: "Array2" :: _ -> (
                     match List.rev nolabel with
                     | b :: a :: _ -> paper_by_reviewer a b
                     | _ -> false)
                 | _ -> false) ->
              report ctx ~loc
          | _ -> ())
      | _ -> ()
  in
  { name = "dense-alloc"; check }

(* 9. swallowed-cancel: Timer.Expired is the cooperative cancel signal.
   A handler that catches it without re-raising converts a deadline
   overrun into a normal return — the budget silently stops binding.
   Only the designated backstop modules (Lint_config.cancel_owners: the
   solver fallback ladder, the serve solve task) may absorb it, because
   each re-enters the degradation protocol instead. Two shapes fire: an explicit [Timer.Expired] pattern (in a
   [try] or a [match ... with exception ...]) whose handler never
   re-raises, and a catch-all [try] handler over a body that visibly
   polls [Timer.check]/[Timer.check_opt] or raises [Expired]. Unlike
   silent-catch, routing through Solver.describe_exn is NOT enough
   here: a described-but-absorbed cancel still reports success. *)
let swallowed_cancel =
  let reraises body =
    let found = ref false in
    let it =
      object
        inherit Ast_traverse.iter as super

        method! expression e =
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match Longident.flatten_exn txt with
              | [ ("raise" | "raise_notrace" | "reraise") ]
              | [ "Printexc"; "raise_with_backtrace" ] ->
                  found := true
              | _ -> ())
          | _ -> ());
          super#expression e
      end
    in
    it#expression body;
    !found
  in
  let rec expired_pat p =
    match p.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> (
        match List.rev (Longident.flatten_exn txt) with
        | "Expired" :: _ -> true
        | _ -> false)
    | Ppat_or (a, b) -> expired_pat a || expired_pat b
    | Ppat_alias (p, _) | Ppat_exception p | Ppat_constraint (p, _) ->
        expired_pat p
    | _ -> false
  in
  let catch_all p =
    match p.ppat_desc with
    | Ppat_any | Ppat_var _ -> true
    | Ppat_alias ({ ppat_desc = Ppat_any; _ }, _) -> true
    | _ -> false
  in
  let body_cancels body =
    let found = ref false in
    let it =
      object
        inherit Ast_traverse.iter as super

        method! expression e =
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match List.rev (Longident.flatten_exn txt) with
              | ("check" | "check_opt") :: "Timer" :: _ -> found := true
              | _ -> ())
          | Pexp_construct ({ txt; _ }, _) -> (
              match List.rev (Longident.flatten_exn txt) with
              | "Expired" :: _ -> found := true
              | _ -> ())
          | _ -> ());
          super#expression e
      end
    in
    it#expression body;
    !found
  in
  let report ctx ~loc =
    Ctx.report ctx ~loc ~rule:"swallowed-cancel"
      "handler absorbs Timer.Expired (the cancel signal) without \
       re-raising; outside the designated backstop modules a caught \
       deadline must propagate"
  in
  let check ctx (e : expression) =
    if
      not
        (Lint_path.matches_any ~suffixes:Lint_config.cancel_owners ctx.Ctx.file)
    then
      match e.pexp_desc with
      | Pexp_try (body, cases) ->
          List.iter
            (fun c ->
              if c.pc_guard = None && not (reraises c.pc_rhs) then
                if expired_pat c.pc_lhs then report ctx ~loc:c.pc_lhs.ppat_loc
                else if catch_all c.pc_lhs && body_cancels body then
                  report ctx ~loc:c.pc_lhs.ppat_loc)
            cases
      | Pexp_match (_, cases) ->
          List.iter
            (fun c ->
              match c.pc_lhs.ppat_desc with
              | Ppat_exception p
                when expired_pat p && c.pc_guard = None
                     && not (reraises c.pc_rhs) ->
                  report ctx ~loc:c.pc_lhs.ppat_loc
              | _ -> ())
            cases
      | _ -> ()
  in
  { name = "swallowed-cancel"; check }

(* 10. direct-scoring: inside the solver chain, a raw scoring-kernel
   call pins the weighted-coverage semantics regardless of which
   Objective backend the caller selected — min and blend runs would
   silently optimize the wrong function. Scores there must come from
   the bound Objective (pair_score / marginal_gain / value) or
   the Gain_matrix it primed. The structural helpers
   (Scoring.empty_group, Scoring.name, Scoring.all) stay legal: they
   build accumulators, they do not score. Input synthesis and
   reporting inside a scoped module can opt out per-expression with
   [@wgrap.allow "direct-scoring"]. *)
let direct_scoring =
  let scoring_kernels =
    [
      "contribution"; "score"; "group_score"; "gain"; "score_sparse";
      "gain_sparse"; "score_into"; "gain_cell"; "gain_row"; "add_postings";
      "group_score_sparse";
    ]
  in
  let in_scope file =
    Lint_path.matches_any ~suffixes:Lint_config.direct_scoring_modules file
    || Lint_path.matches_any
         ~suffixes:!Lint_config.extra_direct_scoring_modules file
  in
  let check ctx (e : expression) =
    if in_scope ctx.Ctx.file then
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match Longident.flatten_exn txt with
          | [ "Scoring"; member ] when List.mem member scoring_kernels ->
              Ctx.report ctx ~loc ~rule:"direct-scoring"
                (Printf.sprintf
                   "raw Scoring.%s in the solver chain bypasses the bound \
                    Objective; score through Objective.pair_score / \
                    marginal_gain / value (or the Gain_matrix it \
                    primed) so --objective backends govern the solve"
                   member)
          | [ "Instance"; "pair_score" ] ->
              Ctx.report ctx ~loc ~rule:"direct-scoring"
                "Instance.pair_score in the solver chain bypasses the bound \
                 Objective; use Objective.pair_score so --objective backends \
                 govern the solve"
          | _ -> ())
      | _ -> ()
  in
  { name = "direct-scoring"; check }

let all =
  [
    wall_clock; raw_random; silent_catch; poly_compare; float_eq; unsafe_array;
    unbounded_retry; dense_alloc; swallowed_cancel; direct_scoring;
  ]
