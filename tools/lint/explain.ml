(* The rule catalog: a one-line summary (reused as SARIF rule
   metadata), a prose explanation, and a bad/good example pair for
   every registered rule. Drives [--explain <rule>]. *)

type entry = {
  rule : string;
  summary : string;
  prose : string;
  bad : string;
  good : string;
}

let entries =
  [
    {
      rule = "wall-clock";
      summary = "no wall-clock reads outside the monotonic Timer";
      prose =
        "Unix.gettimeofday, Unix.time and Sys.time jump when NTP adjusts \
         the clock, so budgets computed from them can expire instantly or \
         never. Every deadline and timing must go through \
         Wgrap_util.Timer, which wraps CLOCK_MONOTONIC.";
      bad = "let t0 = Unix.gettimeofday () in ...";
      good = "let t0 = Timer.now () in ...";
    };
    {
      rule = "raw-random";
      summary = "no stdlib Random; draw from the splittable Rng";
      prose =
        "The stdlib Random state is invisible to checkpoints, so a resumed \
         run diverges from the original. All randomness flows through \
         Wgrap_util.Rng (splittable xoshiro256**), whose state is part of \
         the checkpoint and replays bit-exactly.";
      bad = "let k = Random.int n in ...";
      good = "let k = Rng.int rng n in ...";
    };
    {
      rule = "silent-catch";
      summary = "catch-all handlers must re-raise or describe the fault";
      prose =
        "A catch-all handler that neither re-raises nor records the \
         exception via Solver.describe_exn makes faults vanish: the solve \
         reports success with silently wrong output. Surface the fault or \
         narrow the pattern.";
      bad = "try solve inst with _ -> fallback inst";
      good =
        "try solve inst with exn -> degrade (Solver.describe_exn exn) inst";
    };
    {
      rule = "poly-compare";
      summary = "no polymorphic compare/min/max on float operands";
      prose =
        "Polymorphic compare orders NaN inconsistently with the float \
         comparison operators (compare nan x = -1 but nan < x is false), \
         which corrupts heap and sort invariants. Use the monomorphic \
         Float.compare / Float.min / Float.max.";
      bad = "List.sort compare gains";
      good = "List.sort Float.compare gains";
    };
    {
      rule = "float-eq";
      summary = "no (=)/(<>) on float expressions";
      prose =
        "Exact float equality is almost always a rounding bug. Where \
         exactness really is meant (sentinel zeros), Float.equal states \
         the intent; otherwise compare against a tolerance.";
      bad = "if gain = 0.0 then ...";
      good = "if Float.equal gain 0.0 then ...  (* sentinel *)";
    };
    {
      rule = "unsafe-array";
      summary = "bounds-check elision only in the allowlisted kernels";
      prose =
        "Array/Bytes/String.unsafe_* is reserved for the sparse scoring \
         kernels (lib/core/scoring.ml, lib/core/gain_matrix.ml), whose \
         index ranges are established by construction. Everywhere else the \
         bounds check is cheap insurance.";
      bad = "Array.unsafe_get weights i";
      good = "weights.(i)";
    };
    {
      rule = "unbounded-retry";
      summary = "retry loops need a visible bound; serve reads go via \
                 Transport";
      prose =
        "A recursive retry loop with no attempt counter, backoff, cap or \
         deadline turns a transient fault into a hang; and a raw blocking \
         read in service code can stall the event loop forever. Cap the \
         retries, and route serve input through Wgrap_serve.Transport, \
         which bounds every read with a Timer deadline.";
      bad = "let rec reconnect () = try dial () with _ -> reconnect ()";
      good =
        "let rec reconnect ~attempts () = if attempts > 0 then ... \
         reconnect ~attempts:(attempts - 1) ()";
    };
    {
      rule = "dense-alloc";
      summary = "no O(papers x reviewers) allocations outside Gain_matrix";
      prose =
        "One flat papers-by-reviewers matrix for a 50k-reviewer pool is \
         gigabytes before the solver does any work — the memory wall the \
         candidate-pruned Gain_matrix exists to avoid. Stream per-paper \
         candidate rows (Ctx.candidates) instead.";
      bad = "Array.make (n_papers * n_reviewers) 0.0";
      good = "Gain_matrix.row gm paper  (* candidate-pruned *)";
    };
    {
      rule = "swallowed-cancel";
      summary = "Timer.Expired must propagate outside the backstop ladder";
      prose =
        "Timer.Expired is the cooperative cancel signal. A handler that \
         absorbs it converts a deadline overrun into a normal return and \
         the budget silently stops binding. Only the designated backstop \
         modules may catch it, because each re-enters the degradation \
         protocol instead of reporting success.";
      bad = "try refine sol with Timer.Expired -> sol";
      good = "try refine sol with Timer.Expired as e -> record (); raise e";
    };
    {
      rule = "direct-scoring";
      summary = "solver-chain scores flow through the bound Objective";
      prose =
        "The solver chain (SDGA, SRA, greedy, the CRA/JRA drivers, bid \
         blending) is parameterized by a pluggable Objective backend — \
         weighted coverage, bid blend, min fairness. A raw Scoring.* kernel call or Instance.pair_score inside those \
         modules hard-wires weighted-coverage semantics, so an --objective \
         min run would silently optimize the wrong function. Score through \
         Objective.pair_score / marginal_gain / value, or the \
         Gain_matrix the bound objective primed. Structural helpers \
         (Scoring.empty_group) stay legal; input synthesis or reporting \
         code opts out per-expression with [@wgrap.allow \
         \"direct-scoring\"].";
      bad = "let g = Scoring.gain inst.scoring ~group ~reviewer pvec";
      good = "let g = Objective.marginal_gain obj ~group ~paper ~reviewer";
    };
    {
      rule = "deadline";
      summary = "solver entries accept ?deadline and transitively poll it";
      prose =
        "Every exported solver entry point must accept ?deadline or ?ctx, \
         and must reach the monotonic timer — poll Timer.check* / \
         Timer.expired*, or forward the deadline to a callee that does — \
         anywhere down its transitive call chain. The interprocedural \
         analysis follows the chain, so a helper three calls deep that \
         polls satisfies the entry; an entry that merely *accepts* the \
         deadline and drops it does not.";
      bad = "let solve ?deadline:_ inst = loop inst";
      good = "let solve ?deadline inst = loop (Timer.check ?deadline) inst";
    };
    {
      rule = "domain-race";
      summary = "Pool closures must not write coordinator-shared state";
      prose =
        "A closure handed to Pool.run/map/iter/reduce executes on another \
         domain. If its transitive effects — its own writes, or writes \
         performed by anything it calls, however deep — hit state the \
         coordinator (or a sibling task) can also touch, that is a data \
         race: unsynchronized cross-domain mutation. Writes through the \
         closure's own parameters are task-local; array-style writes \
         partitioned by the task index are the Pool's documented sharing \
         idiom. Everything else must be restructured: return values and \
         let the coordinator combine them.";
      bad =
        "let hits = ref 0 in\n\
         Pool.iter pool ~n (fun i -> if probe i then incr hits)";
      good =
        "let per_task = Array.make n 0 in\n\
         Pool.iter pool ~n (fun i -> if probe i then per_task.(i) <- 1)";
    };
    {
      rule = "nondet-reach";
      summary = "solver entries must not reach nondeterministic sources";
      prose =
        "A solver entry point that transitively reaches Hashtbl iteration \
         (unspecified order), a wall clock, the environment, or the \
         unseeded stdlib Random produces a different assignment on every \
         run — benchmarks stop being comparable and checkpoint replay \
         diverges. The interprocedural analysis follows calls through any \
         number of modules. Iterate sorted keys, use Timer for time and \
         Rng for randomness, or annotate a justified site with \
         [@wgrap.allow \"nondet-reach\"].";
      bad = "let solve inst = Hashtbl.iter visit inst.index; ...";
      good =
        "let solve inst =\n\
        \  List.iter visit (List.sort compare (keys inst.index)); ...";
    };
  ]

let find rule = List.find_opt (fun e -> e.rule = rule) entries

let to_text (e : entry) =
  Printf.sprintf "%s — %s\n\n%s\n\nBad:\n\n  %s\n\nGood:\n\n  %s\n" e.rule
    e.summary e.prose
    (String.concat "\n  " (String.split_on_char '\n' e.bad))
    (String.concat "\n  " (String.split_on_char '\n' e.good))

let rule_names () = List.map (fun e -> e.rule) entries
