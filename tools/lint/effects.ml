(* The effect lattice for the interprocedural analysis. Each top-level
   value gets a set of these, first from its own body (phase 1, see
   {!Summarize}) and then closed over the call graph (phase 2, see
   {!Callgraph}). Sets are int bitmasks so the fixpoint is cheap. *)

type t =
  | Mut_global  (* writes state not bound inside the function itself *)
  | Mut_arg  (* writes through one of its own parameters *)
  | Io  (* channels, files, sockets, process state *)
  | Nondet  (* reads an order- or time-dependent source *)
  | Polls_deadline  (* reaches Timer.check* / Timer.expired* *)
  | Raises_expired  (* may raise Timer.Expired *)
  | Forwards_deadline  (* passes a ~deadline/?deadline/~ctx argument on *)

let bit = function
  | Mut_global -> 1
  | Mut_arg -> 2
  | Io -> 4
  | Nondet -> 8
  | Polls_deadline -> 16
  | Raises_expired -> 32
  | Forwards_deadline -> 64

module Set = struct
  type elt = t
  type t = int

  let empty = 0
  let add e s = s lor bit e
  let mem e s = s land bit e <> 0
  let union a b = a lor b
  let inter a b = a land b
  let singleton e = bit e
  let equal (a : int) (b : int) = Int.equal a b
  let of_list l = List.fold_left (fun s e -> add e s) empty l

  (* Effects a caller inherits from a plain call: argument mutation is
     relative to the callee's own parameters, so it does not transfer
     by itself (it transfers as Mut_arg/Mut_global only when the call
     site passes a parameter resp. shared value — see
     {!Callgraph.close_over}). *)
  let propagated =
    of_list [ Mut_global; Io; Nondet; Polls_deadline; Raises_expired;
              Forwards_deadline ]
end
