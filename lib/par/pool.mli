(** Small domain pool for coarse-grained data parallelism.

    A pool is a job-count policy: [create ~jobs] fixes how many domains
    an operation may use, and {!run}/{!map}/{!reduce} fan a batch of
    independent tasks out over short-lived domains (spawned per
    operation — an OCaml 5 domain costs tens of microseconds, noise
    against the millisecond-scale batches the solvers submit). On
    OCaml 4.x the build selects a sequential backend with the same API,
    and a [jobs = 1] pool is sequential on every build.

    {b Determinism contract}: results are returned in task-index order
    no matter which domain computed them, so for a pure task function
    the result is bit-identical at any job count. The solver path that
    uses a pool ({!Wgrap.Gain_matrix.rebuild}) builds on this: its
    property tests pin [jobs = n] against [jobs = 1] exactly. Work whose result would depend on the job count
    does not belong on a pool.

    {b Sharing contract}: task functions must not mutate state reachable
    from another task. Read-only sharing (the instance, a score matrix,
    a {!Wgrap_util.Timer.deadline} every task polls) is safe; anything
    mutable must be task-local or partitioned by task index, as
    {!Wgrap.Gain_matrix.rebuild} partitions rows (one contiguous chunk
    of papers, and one retrieval scratch, per task). *)

type t

val parallel_supported : bool
(** [true] iff this build fans work out over [Stdlib.Domain] (OCaml >=
    5.0); [false] on the sequential fallback build. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] when parallelism is supported,
    [1] otherwise. The CLI's [--jobs] default. *)

val create : jobs:int -> t
(** A pool allowed up to [jobs] domains per operation (clamped to at
    least 1). [jobs] beyond {!recommended_jobs} is allowed but
    oversubscribes the machine; the CLI caps [--jobs] there. *)

val sequential : t
(** The [jobs = 1] pool: every operation runs in the calling domain, in
    ascending index order. *)

val jobs : t -> int

val run : t -> n:int -> (int -> 'a) -> 'a array
(** [run p ~n f] is [[| f 0; ...; f (n-1) |]], computed with up to
    [jobs p] domains (the caller participates as one). If an application
    raises, the pool drains and re-raises the exception of the lowest
    failing index that was evaluated; with [jobs = 1] that is exactly
    the first failing index. *)

val iter : t -> n:int -> (int -> unit) -> unit
(** {!run} discarding the (unit) results — parallel for-loop. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map p f a] is [Array.map f a] computed via {!run}. *)

val reduce : t -> ('a -> 'b) -> ('acc -> 'b -> 'acc) -> init:'acc -> 'a array -> 'acc
(** [reduce p f combine ~init a] maps [f] over [a] in parallel, then
    folds [combine] over the results sequentially in index order — the
    fold order is fixed, so float accumulation does not depend on the
    job count. *)
