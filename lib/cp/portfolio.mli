(** Parallel portfolio solver on OCaml 5 domains.

    The paper's resource manager re-solves the whole CP model at every job
    arrival, so solver wall-clock {e is} the scheduling overhead O it
    reports.  This module runs K independent solver strategies concurrently,
    one per domain:

    + worker 0 is a {e sequential replica}: the exact configuration (job
      ordering, tie-break, RNG seed) of {!Solver.solve}, isolated from
      foreign bounds so its trajectory is reproducible;
    + workers 1..K-1 walk the (job-ordering × branching-tie-break) grid —
      the three greedy orderings of §VI.B seed the search, exact B&B
      workers differ in their SetTimes tie-break ({!Search.tie_break}), and
      LNS workers (chosen automatically on large instances, as in
      {!Solver.solve}) draw from distinct RNG streams.

    Every worker runs the one solve pipeline, {!Solver.solve_linked}, with
    its default exact backend (a fresh {!Model} per worker), and with the
    warm start and carried bound of its caller, a {!Session} with
    [domains > 1].  All workers share the incumbent Σ N_j through an
    [Atomic]: B&B workers adopt it as their bound mid-search (pruning
    against the best solution found anywhere), LNS workers use it to cut
    hopeless fragment searches, and the first worker to prove optimality
    raises a cancellation flag that stops the rest.

    Guarantees:
    - [solve ~domains:1] runs {!Solver.solve_linked} alone — bit-identical
      results, keeping simulations deterministic by default;
    - with [domains ≥ 2] the returned Σ N_j is never worse than the
      sequential solver's on the same instance and options (worker 0 runs
      the identical trajectory and the coordinator returns the best worker
      solution), and the pipeline's seed-is-optimal fast path
      ({!Solver.settle}) short-circuits without spawning any domain;
    - every worker owns its {!Store}, {!Model} and RNG; the only shared
      mutable state is the two [Atomic]s (see the store's domain-locality
      notes in [store.mli]);
    - a warm start ([warm], see {!Solver.incumbent}) and a carried bound
      flow through unchanged to every worker: each seeds from the same
      carried candidate (completed deterministically, so all workers agree
      on it), bounds with the same carried bound and publishes its seed
      into the shared incumbent immediately, and the seed-is-optimal
      shortcut above also takes both into account. *)

type worker_stats = {
  strategy : string;
      (** e.g. ["sequential"], ["edf/duration/s7919"] *)
  w_nodes : int;
  w_lns_moves : int;
}

type stats = {
  base : Solver.stats;
      (** aggregate view, shape-compatible with the sequential solver:
          node/failure/LNS counts summed over workers, [seed_late] from
          worker 0, wall-clock [elapsed] of the whole portfolio *)
  workers : worker_stats array;  (** one entry per worker that ran *)
  winner : string;  (** [strategy] of the worker whose solution is returned *)
  domains_used : int;
}

val solve :
  ?domains:int ->
  ?options:Solver.options ->
  ?pass:Solver.pass ->
  ?warm:Solver.incumbent ->
  ?carried_bound:int ->
  Sched.Instance.t ->
  Sched.Solution.t * stats
(** Never fails: at worst returns the greedy seed.  [domains] defaults to 1
    (sequential).  Ties between equally good worker solutions go to the
    earliest worker (worker 0 first), so the reported [winner] is
    deterministic.  A [pass] of [inst] ({!Solver.prepare}) is used by the
    seed-is-optimal check and by worker 0, which both run on the calling
    domain; the other workers prepare their own. *)
