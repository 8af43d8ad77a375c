(** Persistent solver session: the zero-rebuild hot path.

    The cold pipeline ({!Solver.solve}) builds a fresh {!Store} and
    {!Model} at every manager invocation — variable allocation, propagator
    registration, watch wiring and first propagation all land on the
    per-invocation overhead O the paper measures.  A session keeps {e one}
    store alive for the manager's lifetime and {e diffs} the job set
    between invocations instead:

    - a newly arrived job appends its Table-1 constraint block (start
      variables, LFMT/completion [max_of], precedence, lateness, entries in
      the per-pool capacity registries and the objective sum);
    - a pending task's est bump ([est = max(s_j, now)] only grows) is a
      root-level [set_min];
    - a task that started running is root-fixed at its dispatched start;
    - a completed task is {e retracted}: fixed at the start it actually ran
      at, removed from its pool registry ({!Propagators.dyn_retire}), its
      watch-list entries unhooked ({!Store.unwatch}).  Its window ends at
      or before [now] while every pending est is at least [now], so the
      retraction never changes what the remaining tasks see;
    - a departed job leaves the objective sum and its variables go inert;
      its slot, with its tasks', leaves the session's tables, so they hold
      the open work and not the history ({!stats_footprint}).  The dead
      variables and propagators themselves stay in the store until a
      rebuild.

    Root writes take no trail entries ({!Store.set_min}), so a store kept
    for a whole stream does not accumulate them either.  The sync walk also
    writes the search's views (start and late variables by task and job
    index) as it goes, so the search starts without rebuilding them.

    Search then re-enters the {e same} store, with all propagation scratch —
    pool event permutations, Θ-tree buffers, watch pools — already warm.
    The armed objective bound lives in a guard level pushed around each
    search, because root state must stay valid across invocations whose
    objectives differ.

    The session also carries an {e optimality certificate} between
    invocations: after a proved solve it records the proved Σ N_j together
    with each job's lateness and completion under the installed plan.  On a
    later instance the certificate yields a lower bound — the proved bound
    minus the realized lateness of jobs that have since departed, plus the
    solo dooms of jobs outside the certified set (a job that cannot meet
    its deadline even alone is late in every schedule, so the two bounds
    add; see {!Solver.job_doomed}).  Time only shrinks the feasible set
    (ests grow, started tasks freeze at their dispatched starts), so the
    old proof remains a valid bound on the surviving subset.  A seed that
    meets the carried bound is proved optimal with {e no search at all},
    and a search whose improving incumbent reaches the bound stops
    immediately instead of exhausting the tree to re-prove it — the two
    mechanisms behind the session's overhead reduction on contended
    streams, where the expensive part of every cold invocation is
    re-proving optimality the previous invocation already established.

    The session store's domains are a superset of the cold model's (the
    horizon is doubled at creation), and the search is complete, so per
    invocation the session proves the {e same optimum} a cold solve does —
    the differential property test in [test/test_session.ml] checks exactly
    that.  When an instance outgrows the horizon — or any root operation
    fails unexpectedly — the session rebuilds from scratch, which is
    precisely a cold store.

    Last, the session records each task's start in the plans it returns: a
    completed task is retired there, and the next warm start
    ({!Solver.incumbent}) carries the recorded starts the clock has not
    passed.

    The solve policy is {!Solver.solve}'s; the session adds only
    its warm start, the carried bound, an exact search over its store and
    its bookkeeping.  A pass whose search the wall clock stopped
    ([Wall_limit]) drops the store: that dive is the one search whose trail
    can grow to one entry per pending task, and a trail keeps its grown
    size.  The certificate and the recorded plan stay, and the next
    searching pass builds a fresh store, as after {!reset}.

    A session serves one manager sequentially — it is not thread-safe. *)

type t

val create : unit -> t
(** An empty session; the store is built by the first searching {!solve},
    and the options are read per call. *)

val solve :
  ?wrap_leaf:
    ((bool array -> Sched.Solution.t) -> bool array -> Sched.Solution.t) ->
  t ->
  options:Solver.options ->
  Sched.Instance.t ->
  Sched.Solution.t * Solver.stats
(** Run {!Solver.solve} with the warm start, the certificate's bound
    and the persistent store as exact backend, and record the plan it
    returns, which the caller dispatches.  The store's search tries the
    list-schedule leaf {!Solver.list_leaf} ({!Search.problem.propose});
    [wrap_leaf] (default: none) wraps that proposer, for tests that hand
    the search a corrupted plan.  The sync is {e lazy}: an invocation
    settled by the bound, or past [options.exact_task_limit], never
    touches the store; one stopped by the wall clock drops it.  [elapsed],
    the wall deadline and [store/words_allocated] cover the whole call.
    Never fails, at worst returns the greedy seed.  With
    [options.instrument] the stats carry the session counters
    ([session/retracted], [session/appended_jobs], [session/rebuilds],
    [session/cert_proofs], [store/words_allocated]), the list-schedule
    leaf's work ([search/leaf_asked], [search/leaf_tried],
    [search/leaf_accepted]: {!Search.outcome}'s, 0 on a pass that did not
    search the store) and the store counters of the search that ran. *)

val reset : t -> unit
(** After a fault: drop the store and the certificate, keep the recorded
    plan (it only seeds a warm candidate checked against each instance). *)

(** {1 Introspection} (cumulative over the session's lifetime) *)

val stats_retracted : t -> int
(** Completed tasks retracted from pool registries. *)

val stats_recorded_starts : t -> int
(** Tasks whose start in a returned plan is recorded now (not cumulative):
    pending and running tasks, and completed ones until the store retires
    them or their job leaves. *)

val stats_appended_jobs : t -> int
(** Job blocks appended (rebuilds re-append live jobs). *)

val stats_rebuilds : t -> int
(** Times the store was rebuilt from scratch (outgrown horizon, or a root
    sync failure). *)

val stats_cert_proofs : t -> int
(** Invocations proved optimal by the carried optimality certificate alone —
    proofs the instance's own lower bound could not deliver, so a cold solve
    would have had to search for them. *)

type footprint = {
  root_trail : int;
      (** entries on the store's trail between solves: 0, since root writes
          are not trailed ({!Store.set_min}) *)
  job_slots : int;
      (** job blocks the store's tables hold: the jobs of the last synced
          instance (a departed job's slot goes at the sync that retires its
          last tasks) *)
  task_slots : int;
      (** task slots those job blocks hold: every task open when its job
          was appended, completed ones included until the job goes *)
}

val stats_footprint : t -> footprint
(** The session's table sizes now (not cumulative); all 0 before the first
    searching solve, after a [Wall_limit] pass and after {!reset}.
    Variables and propagators of departed jobs are not in these counts:
    they stay in the store, inert, until a rebuild. *)
