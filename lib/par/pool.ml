(* See pool.mli. The execution strategy lives in {!Pool_backend}, which
   the build selects (dune [select]) between a Domain fan-out (OCaml >=
   5.0) and a sequential stand-in (4.x). *)

type t = { jobs : int }

let parallel_supported = Pool_backend.parallel_supported
let recommended_jobs () = max 1 (Pool_backend.recommended_jobs ())
let create ~jobs = { jobs = max 1 jobs }
let sequential = { jobs = 1 }
let jobs t = t.jobs
let run t ~n f = Pool_backend.run ~jobs:t.jobs ~n f
let iter t ~n f = ignore (Pool_backend.run ~jobs:t.jobs ~n f : unit array)
let map t f a = run t ~n:(Array.length a) (fun i -> f a.(i))

let reduce t f combine ~init a =
  Array.fold_left combine init (map t f a)
