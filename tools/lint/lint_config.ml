(* Project-level lint configuration: which files legitimately own a
   forbidden primitive, and which modules are solver links subject to the
   deadline-discipline contract. Paths are '/'-separated suffixes matched
   on component boundaries (see {!Lint_path}). *)

(* Rule wall-clock: the monotonic Timer is the only module allowed to
   read a clock primitive (it wraps CLOCK_MONOTONIC; everything else must
   go through it so deadlines survive NTP jumps). *)
let wall_clock_owners = [ "lib/util/timer.ml" ]

(* Rule raw-random: all randomness flows through the splittable
   xoshiro256** Rng so checkpoint replay is bit-exact. *)
let random_owners = [ "lib/util/rng.ml" ]

(* Rule unsafe-array: bounds-check elision is reserved for the sparse
   scoring kernels, whose index ranges are established by construction. *)
let unsafe_owners = [ "lib/core/scoring.ml"; "lib/core/gain_matrix.ml" ]

(* Rule dense-alloc: the only module allowed to materialize an
   O(papers x reviewers) block is the Gain_matrix dense backing itself
   (it is the k = 0 oracle the pruned path is validated against). *)
let dense_alloc_owners = [ "lib/core/gain_matrix.ml" ]

(* Rule swallowed-cancel: Timer.Expired is the cooperative cancel
   signal — a handler that absorbs it turns a deadline overrun into a
   silent normal return, and budgets stop binding. The only modules
   allowed to catch it without re-raising are the solver backstop
   ladder (each converts the overrun into the Degraded protocol) and
   the serve solve task. *)
let cancel_owners =
  [
    "lib/core/solver.ml";
    "lib/core/sdga.ml";
    "lib/core/sra.ml";
    "lib/core/greedy.ml";
    "lib/baselines/exact.ml";
    "lib/serve/state.ml";
  ]

(* Rule direct-scoring: inside the solver chain every score must flow
   through the bound Objective (or the Gain_matrix it primed) so a
   pluggable backend — min, blend — actually governs the solve. A
   raw Scoring.* kernel call or Instance.pair_score in these modules
   silently pins the weighted-coverage semantics no matter which
   --objective was selected. Input synthesis and reporting code inside
   them may opt out per-expression with [@wgrap.allow
   "direct-scoring"]. *)
let direct_scoring_modules =
  [
    "lib/core/sdga.ml";
    "lib/core/sra.ml";
    "lib/core/greedy.ml";
    "lib/core/solver.ml";
    "lib/core/bids.ml";
    "lib/baselines/brgg.ml";
  ]

(* Extra files treated as solver-chain modules for the direct-scoring
   check — set from the --scoring-module flag so fixtures outside
   lib/core can exercise the rule. *)
let extra_direct_scoring_modules : string list ref = ref []

(* Rule deadline: solver link modules. Every exported entry point (a val
   whose name is in [solver_entry_names]) must accept [?deadline], and the
   implementation must either poll [Timer.check*]/[Timer.expired*] or
   forward the deadline to a callee that does. *)
let solver_modules =
  [
    "lib/baselines/brgg.ml";
    "lib/baselines/exact.ml";
    "lib/baselines/jra_bfs.ml";
    "lib/baselines/jra_cp.ml";
    "lib/baselines/local_search.ml";
    "lib/core/greedy.ml";
    "lib/core/jra_bba.ml";
    "lib/core/jra_ilp.ml";
    "lib/core/sdga.ml";
    "lib/core/sra.ml";
    "lib/core/stage.ml";
    "lib/cpsolve/cpsolve.ml";
    "lib/lap/hungarian.ml";
    "lib/lap/mcmf.ml";
  ]

(* Rule unbounded-retry: the service event loop must never block without
   a deadline and never retry without a cap. Transport owns every
   blocking read in lib/serve (it threads Timer deadlines through
   Unix.select); anything else under [serve_dirs] reaching for a raw
   blocking read is a hang waiting to happen. *)
let serve_dirs = [ "lib/serve" ]
let serve_transport_owners = [ "lib/serve/transport.ml" ]

(* Extra files treated as serve modules for the unbounded-retry blocking
   read check — set from the --serve-module flag so fixtures outside
   lib/serve can exercise the rule. *)
let extra_serve_modules : string list ref = ref []

(* Rule domain-race (interprocedural): closures handed to these Pool
   operations run on other domains; their transitive effect set must
   not write state shared with the coordinator. *)
let pool_spawn_fns = [ "run"; "map"; "iter"; "reduce" ]

(* Extra files treated as solver modules for the interprocedural
   nondet-reach / transitive-deadline checks — set from the
   --solver-module flag so fixtures outside lib/ can exercise them. *)
let extra_solver_modules : string list ref = ref []

let solver_entry_names =
  [
    "solve"; "solve_rescan"; "solve_counting";
    "top_k"; "refine"; "maximize"; "minimize";
    "min_cost_flow"; "transportation";
  ]
