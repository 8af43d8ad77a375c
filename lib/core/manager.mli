(** MRCP-RM: the MapReduce Constraint-Programming Resource Manager
    (paper §V, Table 2).

    The manager owns the set of active jobs and the current plan (a dispatch
    per not-yet-started task).  On each invocation it executes the Table-2
    algorithm:

    + bump earliest start times below the current time up to now (l.1–4);
    + classify every previously scheduled task by the clock: not started
      (reschedulable), started-but-running (frozen via an equality
      constraint, [isPrevScheduled]), or finished (removed; a job with no
      remaining tasks leaves the system) (l.5–18);
    + build the CP model over pending tasks and solve it (l.19–20) with the
      configured job ordering, warm-started from whatever survives of the
      previous plan, with the solve skipped entirely when that carried plan
      is still feasible and already bound-optimal (a "plan cache hit").
      Every solve goes through the manager's {!Cp.Session}, which carries
      that plan and the optimality certificate from pass to pass;
    + extract the new combined schedule and matchmake it onto physical
      resources (§V.D) to produce the new plan (l.21–22).

    The §V.E optimization is built in: a job whose s_j lies further than
    [deferral_window] in the future is parked in a deferral queue and enters
    matchmaking only when its s_j approaches ({!next_wake} tells the caller
    when to re-invoke).

    The manager never looks at wall-clock arrival events itself — the
    simulator (or a real dispatcher) calls {!submit} and {!invoke}; the
    manager infers running/completed states purely from its own plan and
    [now], exactly as the published algorithm does. *)

type config = {
  solver : Cp.Solver.options;
      (** every pass solves with these through the manager's persistent
          {!Cp.Session}, diffed between invocations *)
  deferral_window : int option;
      (** §V.E: [Some w] defers jobs with s_j > now + w; [None] disables *)
  validate : bool;
      (** re-check every solution against the Table-1 oracle and every plan
          against slot-exclusivity (slower; on in tests).  Applies to every
          path that installs a plan — searched solves, the plan-cache-hit
          fast path, and invocations triggered by deferred jobs re-entering
          via {!next_wake}. *)
  journal : Obs.Journal.t option;
      (** [Some j]: append one structured {!Obs.Journal} event per admission
          decision ("submit": admit/defer/release with reason), per
          scheduling pass ("invoke": arrivals, plan diff, session deltas, the
          solve's {!Obs.Solve_stats.stop_reason}, with wall-clock latency
          isolated under the ["wall"] key), and per predicted SLA-state
          transition ("sla": on_time ⇄ at_risk against the installed plan).
          [None] (default) is strictly zero-cost: no events are built, and
          the solver trajectory is bit-identical to a journal-free run. *)
}

val default_config : config
(** The default solver options (EDF ordering), deferral window 300 s,
    validation off, journaling off. *)

type t

val create : cluster:Mapreduce.Types.resource array -> config -> t

val submit : t -> now:int -> Mapreduce.Types.job -> unit
(** A job arrives.  It is queued (or deferred, §V.E); call {!invoke} to run
    the matchmaking-and-scheduling pass. *)

val invoke : t -> now:int -> unit
(** Run the MRCP-RM algorithm if there is queued work (new or deferred-due
    jobs) or a fault notification marked the state dirty.  No-op otherwise —
    mirroring "if MRCP-RM is not busy and there are jobs available in the job
    queue" (§V.A). *)

val resource_lost : t -> now:int -> resource_id:int -> lost:int list -> unit
(** A resource crashed.  [lost] are the task ids whose in-flight attempts
    died with it: their dispatches are forgotten (the work is lost; they
    re-enter the next instance as pending with est bumped to now), the
    resource is excluded from capacity and matchmaking until
    {!resource_rejoined}, the session's store and certificate are dropped
    (its plan still seeds the next solve), and the next {!invoke} re-solves
    even with an empty queue. *)

val resource_rejoined : t -> now:int -> resource_id:int -> unit
(** The resource accepts work again.  Capacity grows back, so the carried
    certificate (a lower bound proved under the smaller capacity) is
    dropped along with the session's store, and a re-solve is forced. *)

val task_attempt_failed : t -> now:int -> task_id:int -> unit
(** The task's running attempt aborted; it re-enters the open set and will
    be re-executed from scratch (with its nominal execution time). *)

val task_started : t -> now:int -> task_id:int -> exec_ms:int -> unit
(** An attempt started with an actual execution time of [exec_ms] (a chaos
    straggler).  The manager updates the task's frozen record — so later
    classifications and matchmaker occupations use the real finish time —
    and forces a re-solve to repair the downstream plan.  No-op when
    [exec_ms] equals the recorded execution time. *)

val fault_resets : t -> int
(** Times a fault notification reset the session's store and carried
    optimality certificate.  0 in fault-free runs. *)

val resources_down : t -> int
(** Resources currently excluded after {!resource_lost}. *)

val plan : t -> Sched.Dispatch.t list
(** Current dispatches for every active task that has not yet started,
    ordered by start time.  Starts are absolute simulation times. *)

val plan_version : t -> int
(** Incremented every time {!invoke} actually re-solves (and hence may have
    changed the plan); lets callers skip reconciliation after no-op
    invocations. *)

val next_wake : t -> int option
(** Earliest future time at which {!invoke} should be called again because a
    deferred job becomes due. *)

val active_jobs : t -> int
(** Jobs tracked (arrived, not yet fully completed at the last invocation). *)

val overhead_seconds : t -> float
(** Total wall-clock time spent in solving + matchmaking so far — the
    numerator of the paper's O metric. *)

val max_invocation_seconds : t -> float
(** Longest single matchmaking-and-scheduling pass so far (the paper quotes
    these maxima, e.g. "O was observed to be 0.57s" at small m). *)

val job_overhead_seconds : t -> int -> float
(** Wall-clock solver + matchmaking time attributed to a job: the sum of
    [elapsed] over every invocation in which the job was active.  Tracked
    only when [config.journal] is set (0. otherwise) — it feeds the
    journal's per-job lateness attribution, not the paper's O metric. *)

val solve_count : t -> int
(** Scheduling passes run (including plan-cache hits, which replace a solve
    with an O(1)-ish plan completion). *)

val cache_hit_count : t -> int
(** Passes that skipped the CP solve because the carried-over plan was still
    feasible and bound-optimal (also counted in the [manager/plan_cache_hits]
    metric and flagged on the invoke trace span). *)

val jobs_scheduled : t -> int
(** Total jobs that have been through at least one scheduling pass —
    the denominator of O. *)

val last_solver_stats : t -> Cp.Solver.stats option
(** Stats of the most recent solve. *)

val metrics : t -> Obs.Metrics.snapshot option
(** Accumulated telemetry over every invocation so far — manager-level
    counters ([manager/*]) merged with the per-solve solver and propagator
    metrics ([solver/*], [prop/*], [store/*]).  [None] unless the manager
    was created with [config.solver.instrument = true]. *)
