module Timer = Wgrap_util.Timer
module Rng = Wgrap_util.Rng
module Pool = Wgrap_par.Pool

type t = {
  deadline : Timer.deadline option;
  rng : Rng.t option;
  gains : Gain_matrix.t option;
  candidates : int;
  checkpoint : Checkpoint.sink option;
  resume_from : (Checkpoint.state, string) result option;
  pool : Pool.t option;
  objective : Objective.spec;
}

let default =
  {
    deadline = None;
    rng = None;
    gains = None;
    candidates = 0;
    checkpoint = None;
    resume_from = None;
    pool = None;
    objective = Objective.coverage;
  }

let make ?deadline ?budget ?rng ?seed ?gains ?(candidates = 0) ?checkpoint
    ?resume_from ?pool ?(objective = Objective.coverage) () =
  if candidates < 0 then invalid_arg "Ctx.make: candidates must be >= 0";
  {
    deadline =
      (match (deadline, budget) with
      | (Some _ as d), _ -> d
      | None, Some s -> Some (Timer.deadline s)
      | None, None -> None);
    rng =
      (match (rng, seed) with
      | (Some _ as r), _ -> r
      | None, Some s -> Some (Rng.create s)
      | None, None -> None);
    gains;
    candidates;
    checkpoint;
    resume_from;
    pool;
    objective;
  }

let rng_or ~seed t = match t.rng with Some r -> r | None -> Rng.create seed
