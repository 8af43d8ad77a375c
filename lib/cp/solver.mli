(** Anytime solver for a scheduling instance — the role CPLEX CP Optimizer
    plays in the paper (§IV–V).

    Pipeline ({!solve} holds it once for every caller):
    + seed with greedy list schedules under the paper's three job orderings
      (§VI.B) plus a doomed-last variant and keep the best (or adopt a
      carried warm-start plan that is at least as good);
    + compute a lower bound on Σ N_j ({!late_lower_bound}: a job whose
      est + wave-bound makespan already exceeds its deadline is late in every
      schedule); if the seed meets the bound it is optimal — the common case
      in the paper's open system, which is what keeps the measured overhead
      O small;
    + otherwise run exact branch-and-bound when the instance is small enough,
      or large-neighbourhood search (relax the late jobs plus a few random
      ones, fix everything else, exactly re-solve the fragment) under a time
      budget — the same anytime regime CP Optimizer applies to models of this
      shape. *)

(** A carried-over plan from a previous solve, the pipeline's warm start.
    [carried_starts] is an array over the instance's task index
    ({!Sched.Instance.t}) holding the start the previous schedule gave each
    pending task, or [min_int] for a task it did not plan (a start below
    the job's est is stale either way); [changed_jobs] lists the job ids
    that changed since that schedule was produced (new arrivals) — LNS
    relaxes them on its first move so the search re-optimizes around the
    delta first.  {!Session} builds it from the plans it returned. *)
type incumbent = { carried_starts : int array; changed_jobs : int list }

type options = {
  ordering : Sched.Greedy.order;
      (** job-ordering strategy for the greedy seed (paper §VI.B) *)
  exact_task_limit : int;
      (** run global B&B when #pending tasks ≤ this (default 120) *)
  fail_limit : int;  (** failure budget per exact search (default 20_000) *)
  time_limit : float;  (** wall-clock seconds for the whole solve *)
  lns_neighbors : int;  (** extra random jobs relaxed per LNS move *)
  lns_max_stall : int;  (** stop after this many non-improving moves *)
  seed : int;  (** randomization seed for LNS *)
  instrument : bool;
      (** collect per-propagator fire/fail/time metrics into
          [stats.metrics] (default [false]).  Metering never changes
          pruning, so the search trajectory is identical either way. *)
}

val default_options : options

(** Re-export of the repo-wide solver-telemetry record
    ({!Obs.Solve_stats.t}) — the same fields, same type. *)
type stats = Obs.Solve_stats.t = {
  seed_late : int;
      (** late jobs in the starting incumbent (greedy seed, or the
          warm-start candidate when one was adopted) *)
  lower_bound : int;
  proved_optimal : bool;
  warm_seeded : bool;
      (** the starting incumbent was the carried-over {!warm_candidate};
          combined with [seed_late <= lower_bound] this identifies a plan
          cache hit (no model was built, no search ran) *)
  stop_reason : Obs.Solve_stats.stop_reason;
      (** why the solve returned: [Cache_hit] on the warm-seeded fast path,
          [Proved] when search or the bound settled it, otherwise the limit
          (or LNS stall) that cut it *)
  nodes : int;
  failures : int;
  lns_moves : int;
  elapsed : float;  (** wall-clock seconds spent *)
  seed_s : float;  (** of which the bound and the starting incumbent *)
  bound_s : float;  (** of [seed_s], preparing the pass ({!prepare}) *)
  warm_s : float;  (** of [seed_s], the {!warm_candidate} completion *)
  list_s : float;  (** of [seed_s], the list schedules *)
  sync_s : float;  (** of which the session store's sync ({!Session}) *)
  search_s : float;  (** of which the exact search or LNS *)
  metrics : Obs.Metrics.snapshot option;
      (** [Some] iff [options.instrument] was set *)
}

type exact_search =
  registry:Obs.Metrics.t option ->
  bound_to_beat:int ->
  Search.limits ->
  Search.outcome * float
(** An exact-regime backend: B&B over the whole instance against the
    strict bound [bound_to_beat], its store telemetry added into
    [registry] when given.  It returns the outcome and the seconds it spent
    bringing its store in line with the instance before searching, which
    the pipeline reports as [sync_s] (0 for a fresh model).  {!Session}
    supplies one over its persistent store. *)

(** One instance's shared seed work: the list schedules'
    {!Sched.Greedy.pass}, each job's {!job_doomed} and their count, the
    classic bound.  Built once per solve; like the greedy pass it is
    scratch space for one caller. *)
type pass

val prepare : ?scratch:Sched.Greedy.scratch -> Sched.Instance.t -> pass
(** With [scratch], valid until the next [prepare] on it
    ({!Sched.Greedy.prepare}). *)

val pass_tasks : pass -> Mapreduce.Types.task array
(** {!Sched.Greedy.tasks}: the pending tasks by task index, shared. *)

val schedules_run : pass -> int
(** {!Sched.Greedy.schedules_run} of the pass's list schedules: the seeds,
    the warm completion and every {!list_leaf} ask count. *)

val late_lower_bound : pass -> int
(** The classic bound: the number of the instance's jobs that are late in
    {e every} schedule ({!job_doomed}: est plus the single-job wave lower
    bound — max task length vs. total-work/capacity, per phase — already
    exceeds the deadline). *)

val doomed : pass -> int -> bool
(** [doomed p jdx]: {!job_doomed} of the instance's job [jdx]. *)

val list_leaf : pass -> bool array -> Sched.Solution.t
(** [list_leaf p] is a {!Search.problem.propose} over the pass's instance:
    given each job's lateness decision by job index ([true]: decided
    late), the list schedule of the jobs decided on time in EDF order,
    then of those decided late by ascending pending work
    ({!Sched.Instance.pending_exec_total}), ties in EDF order.  Like the
    doomed-last seed it keeps the savable jobs ahead of the rest.

    The sequence then repairs itself.  While the last schedule leaves some
    job decided on time late, the first such job in the sequence moves to
    the front of the on-time block and the jobs are list-scheduled again;
    the repair stops when no job decided on time is late, when the first
    late one is already at the front, or when it has jumped once before in
    this ask.  Each job jumps at most once, so one ask runs at most
    (on-time jobs + 1) list schedules; it returns the best plan seen
    ({!Sched.Solution.better}), never worse than the first.

    The proposal is any list schedule: the search records it only once its
    store accepts it.  Shares the pass's {!Sched.Greedy.pass}, so it runs
    between the pass's other schedules, not beside them. *)

val warm_candidate : pass -> incumbent -> Sched.Solution.t option
(** Complete a carried-over plan into a full solution for the pass's
    (updated) instance: jobs whose pending tasks all still have non-stale
    carried starts keep them, every other job (new arrivals, jobs with
    stale entries) is EDF-list-scheduled around them on the frozen tasks'
    profiles.  Returns [None] when nothing usable was carried or the
    completed candidate breaks Table 1 — checked without a sweep, by
    per-task est and precedence arithmetic on the carried starts and the
    peak of the profiles the completion just built — so a returned
    candidate always passes {!Sched.Solution.feasibility_errors}.
    Deterministic.  The pipeline seeds from it when given a [warm]
    incumbent, on the pass it prepared or was handed. *)

val starting_incumbent :
  options:options ->
  ?warm:incumbent ->
  ?lb:int ->
  pass ->
  Sched.Solution.t * bool
(** The pipeline's seed, and whether it is the adopted {!warm_candidate}.
    Cold (no [warm]): the best greedy schedule over the three orderings and
    the doomed-last sequence, ties to [options.ordering].  Warm: the
    candidate when it meets [lb]; otherwise the candidate unless one greedy
    pass of [options.ordering] beats it, in which case the cold seed, so a
    warm seed is never worse than a cold one.  All these schedules share
    one {!Sched.Greedy.pass}. *)

val job_doomed : Sched.Instance.t -> Sched.Instance.pending_job -> bool
(** Can the job provably not meet its deadline even with the whole cluster
    to itself (wave bound from est over frozen floors)?  Independent of
    every other job, so these dooms add onto any lower bound for a disjoint
    job set — {!Cp.Session} exploits exactly that. *)

val solve :
  ?options:options ->
  ?t0:float ->
  ?pass:pass ->
  ?carried_bound:int ->
  ?warm:incumbent ->
  ?exact:exact_search ->
  ?on_settle:(Obs.Metrics.t option -> Sched.Solution.t -> stats -> unit) ->
  Sched.Instance.t ->
  Sched.Solution.t * stats
(** The pipeline above — the one copy of the solve policy, run by the tests
    and by {!Session}.  The bound is [max (late_lower_bound pass)
    carried_bound]; the seed is {!starting_incumbent}'s, warm from [warm]
    when given, built on [pass] (default: prepared here; a caller that
    needs the pending tasks or the dooms first prepares it once and hands
    it in), and a seed meeting the bound returns at once with [Proved],
    [Cache_hit] (adopted warm plan) or [Hit_carried_bound] (only the
    carried bound settles it).  Instances with at most
    [options.exact_task_limit] pending tasks go to [exact] (default: a
    fresh {!Model}), larger ones to LNS on fresh fragment models; both stop
    once an incumbent meets the bound.  The wall deadline and
    [stats.elapsed] run from [t0] (default: now).  [on_settle registry
    incumbent stats] runs once on every return path, before [elapsed] and
    the metrics snapshot are read.  Never fails: at worst returns the
    greedy seed. *)

val pp_stats : Format.formatter -> stats -> unit
