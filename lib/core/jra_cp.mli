(** JRA as a generic constraint program, solved by {!Cpsolve} (the
    paper's CPLEX CP Optimizer comparison, Section 5.1).

    The model has [delta_p] integer variables over the reviewer pool,
    all-different, with strictly-increasing symmetry breaking. The only
    bound available to a generic CP engine here is the weak "each empty
    slot adds at most the best single-reviewer gain" estimate — far
    looser than BBA's per-topic cursor bound, which is exactly the
    paper's explanation for CP's poor performance on this problem. *)

type outcome =
  | Solved of Jra.solution
  | Timed_out of Jra.solution option

val solve :
  ?deadline:Wgrap_util.Timer.deadline -> Jra.problem -> outcome * float option
(** The outcome, with the seconds this call took to reach its first
    feasible leaf ([None] if it reached none; the paper reports 90 ms
    for CPLEX on R = 30). *)
