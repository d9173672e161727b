module Timer = Wgrap_util.Timer

type model = {
  arity : int;
  domain : int;
  all_different : bool;
  symmetry_break : bool;
}

type outcome =
  | Optimal of int array * float
  | Timed_out of (int array * float) option
  | No_solution

type stats = {
  nodes : int;
  first_solution_time : float option;
}

exception Out_of_time

let maximize ?deadline ?(bound = fun _ _ -> infinity) model ~score =
  if model.arity <= 0 || model.domain <= 0 then
    invalid_arg "Cpsolve.maximize: arity and domain must be positive";
  let partial = Array.make model.arity 0 in
  let used = Array.make model.domain false in
  let incumbent = ref None in
  let incumbent_value = ref neg_infinity in
  let nodes = ref 0 in
  let start = Timer.now () in
  let first_solution = ref None in
  let check_deadline () =
    match deadline with
    | Some d when Timer.expired d -> raise Out_of_time
    | _ -> ()
  in
  let rec assign depth =
    if depth = model.arity then begin
      let value = score partial in
      if !first_solution = None then
        first_solution := Some (Timer.now () -. start);
      if value > !incumbent_value then begin
        incumbent_value := value;
        incumbent := Some (Array.copy partial)
      end
    end
    else begin
      check_deadline ();
      let lo =
        if model.symmetry_break && depth > 0 then partial.(depth - 1) + 1
        else 0
      in
      for v = lo to model.domain - 1 do
        if not (model.all_different && used.(v)) then begin
          incr nodes;
          partial.(depth) <- v;
          if bound partial (depth + 1) > !incumbent_value then begin
            used.(v) <- true;
            assign (depth + 1);
            used.(v) <- false
          end
        end
      done
    end
  in
  let finish timed_out =
    let outcome =
      match (!incumbent, timed_out) with
      | Some best, false -> Optimal (best, !incumbent_value)
      | best, true ->
          Timed_out (Option.map (fun b -> (b, !incumbent_value)) best)
      | None, false -> No_solution
    in
    (outcome, { nodes = !nodes; first_solution_time = !first_solution })
  in
  match assign 0 with
  | () -> finish false
  | exception Out_of_time -> finish true
