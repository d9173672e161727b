(** The resident assignment state behind [wgrap serve], and the
    plan/commit split that makes the WAL deterministic.

    The state holds the live conference — papers, reviewers, conflicts,
    bid weights, the current reviewer group of every paper, and the set
    of papers {e pending} improvement attention — keyed by the client's
    external ids.

    Mutations go through two phases:

    - {!plan} is {e pure}: it computes, under an optional wall-clock
      deadline, the ops (group changes, pending marks) the event should
      cause, running a minimal re-solve — a single-paper JRA for a new
      paper or a bid change (the ILP on half of the deadline, then
      {!Wgrap.Solver.jra} on the rest), and a
      bid-weighted greedy refill of the broken groups for a reviewer
      leaving or a late conflict (also the degraded backstop). The
      result may depend on the wall clock; that is fine, because
    - {!commit} applies a journal {e entry} (event + planned ops) and is
      strictly deterministic: the same entry sequence folded over the
      same initial state yields a bit-identical {!encode}. The server
      journals the entry before committing it, so crash replay is a
      pure fold.

    {!commit} also re-checks the hard constraints (group sizes ≤
    delta_p, workloads ≤ delta_r, no COI member, members exist) and
    refuses an entry that violates them — a planner bug or a corrupted
    journal fails loudly instead of silently breaking feasibility. *)

type t

val create : dim:int -> delta_p:int -> delta_r:int -> unit -> (t, string) result
(** Empty state under the coverage objective; validates [dim >= 1],
    [delta_p >= 1] and [delta_r >= 1]. *)

(** {2 Accessors} *)

val dim : t -> int
val delta_p : t -> int
val delta_r : t -> int

val objective : t -> Wgrap.Objective.spec

val set_objective : t -> Wgrap.Objective.spec -> unit
(** Swap the resident objective (e.g. after {!decode}, which always
    restores coverage). It shapes only what {!summary} values: every
    planner scores plain weighted coverage of the reviewers' own
    vectors under any objective, and every committed op is journaled
    as data, so replay and the snapshot codec are objective-independent
    and the same journal folds to the same {!encode} under any
    objective. *)

val applied : t -> int
(** Sequence number of the last committed journal entry (0 = none). *)

val last_client : t -> int
(** Id of the last accepted client mutation (-1 = none); the
    strictly-increasing-id guard compares against this. *)

val n_papers : t -> int
val n_reviewers : t -> int

val pending : t -> int list
(** Papers marked for improvement attention, ascending. *)

val group : t -> int -> int list option
(** Current reviewer group of a paper (ascending ids). *)

type answer = {
  group : int list;
  score : float;
      (** bid-unweighted coverage of the group, for reporting *)
  short : bool;  (** the group is below [delta_p] *)
  is_pending : bool;
}

val query : t -> int -> answer option

val summary : t -> Wgrap.Summary.t option
(** Full summary (coverage, fairness, workload, objective value) of the
    committed groups under the resident objective — the payload of the
    service's [stats] read. Builds a dense instance from the roster on
    each call; an over-subscribed committee still gets a report (the
    report instance caps [delta_p] at the reviewer count and raises
    [delta_r] to the balanced minimum, neither of which a reported value
    reads). [None] with no papers or no reviewers, or under an objective
    whose parameters do not fit the roster. *)

(** {2 Plan} *)

val validate_req : t -> Event.req -> (unit, string) result
(** Admission-time semantic validation (unknown/duplicate ids, vector
    dimension, conflicted bid, ...). {!plan} assumes its input passed. *)

type planned = { ops : Event.op list; reasons : Wgrap.Solver.reason list }
(** [reasons] non-empty means the answer is degraded (the deadline cut
    a re-solve or a refill short). *)

val plan :
  ?deadline:Wgrap_util.Timer.deadline -> t -> Event.req -> planned
(** Pure: the state is unchanged, so replay determinism is unaffected.
    The answer depends only on the committed state and the event (and
    the deadline) — a late change gets the same repair whatever else is
    pending. Never raises. *)

type improvement =
  | Improved of Event.op list  (** journal these ops as an [Improve] entry *)
  | Exhausted of int
      (** nothing more can be done for this pending paper right now;
          the caller should memoize it and ask again (memos reset on
          the next mutation) *)
  | Idle  (** no pending paper left unskipped *)

val plan_improve :
  ?deadline:Wgrap_util.Timer.deadline ->
  skip:(int -> bool) ->
  t ->
  improvement
(** One bounded improvement step for the first non-skipped pending
    paper (ascending): refill a short group greedily, or re-solve a
    degraded one and keep the better result. Pure; never raises. *)

(** {2 Commit} *)

val commit : t -> Event.entry -> (unit, string) result
(** Apply one journal entry. The entry's sequence must be exactly
    [applied t + 1] (else [Error], detecting journal gaps), client ids
    must be strictly increasing, and the resulting state must satisfy
    the hard constraints. On [Error] the state is unchanged. *)

(** {2 Snapshot codec} *)

val encode : t -> string
(** Canonical, sorted, [%h]-float text image. Two states reached by the
    same entry fold are byte-identical under [encode] — this is the
    bit-exactness oracle the kill/resume tests diff. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}, with full self-certification: structural
    parse, then constraint re-validation (the same checks {!commit}
    enforces). A snapshot that fails certification is rejected, never
    resumed. *)

val crc : t -> string
(** CRC-32 hex of {!encode} — the short state digest used by soak
    reports and the [--verify] oracle. *)
