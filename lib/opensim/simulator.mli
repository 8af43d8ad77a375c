(** Open-system discrete event simulation (paper §VI).

    A stream of jobs (with pre-generated Poisson arrival times) is fed to a
    resource manager through a {!Driver.t}; the jobs that arrive at one
    instant are submitted together, in list order, and the manager reacts
    once to all of them.  The simulator executes the
    manager's dispatches on the virtual cluster: it fires task-start events
    at planned times, task-completion events [exec_time] later, and manager
    wake-ups (deferred-job releases, §V.E).  Completion of a job's last task
    fixes the job's completion time CT_j.

    An optional {!Chaos.plan} injects faults deterministically: resource
    crashes (in-flight attempts die, their partial work is lost, the manager
    is notified and must re-plan around the smaller cluster), rejoins,
    straggler attempts (the executed duration is inflated at start and the
    manager is told the real duration), and per-attempt task failures (the
    attempt aborts part-way, the slot frees, the task re-enters).  Fault
    events at the same instant as normal events settle last (rank 3), so a
    completion at the crash instant counts as completed and a start at the
    crash instant is killed in flight.  With an empty plan (the default) the
    simulation is bit-identical to a chaos-free build.

    Metrics produced per run (paper §VI):
    - N: number of jobs that missed their deadline;
    - P: N / total jobs;
    - T: average turnaround, Σ (CT_j − s_j) / n, in seconds;
    - O: average matchmaking-and-scheduling time per job, in seconds, from
      the manager's real wall-clock overhead (the paper measures CPLEX the
      same way). *)

type job_outcome = {
  job : Mapreduce.Types.job;
  completion : int;  (** CT_j, ms *)
  late : bool;  (** CT_j > d_j *)
  turnaround_ms : int;  (** CT_j − s_j *)
}

type results = {
  manager : string;
  outcomes : job_outcome list;
  jobs_total : int;
  n_late : int;  (** the paper's N *)
  p_late : float;  (** the paper's P, in [0,1] *)
  avg_turnaround_s : float;  (** the paper's T, seconds *)
  avg_turnaround_from_arrival_s : float;  (** Σ (CT_j − v_j)/n, for reference *)
  overhead_per_job_s : float;  (** the paper's O, seconds *)
  total_overhead_s : float;
  solves : int;
  max_invocation_s : float;
      (** longest single scheduling pass (paper: "O was observed to be
          0.57s" at small m) *)
  makespan_ms : int;  (** completion of the last job *)
  map_busy_ms : int;
      (** Σ slot-occupancy over map attempts, including the consumed part of
          crash-killed and failed attempts (lost work occupies slots too) *)
  reduce_busy_ms : int;
  map_utilization : float option;
      (** busy slot-time / (map slots × makespan); requires [~cluster] *)
  reduce_utilization : float option;
  events_executed : int;  (** discrete events fired by the engine *)
  metrics : Obs.Metrics.snapshot option;
      (** the driver's accumulated telemetry; [None] unless the manager ran
          with instrumentation enabled *)
  crashes : int;  (** chaos: resource crash events executed *)
  rejoins : int;
  task_failures : int;  (** chaos: injected attempt failures executed *)
  stragglers : int;  (** chaos: straggler attempts executed *)
  lost_work_ms : int;
      (** slot-time consumed by attempts that did not complete (crash-killed
          partial work + failed-attempt partial work) *)
}

val run :
  ?validate:bool ->
  ?journal:Obs.Journal.t ->
  ?metrics_every:int ->
  ?cluster:Mapreduce.Types.resource array ->
  ?chaos:Chaos.plan ->
  driver:Driver.t ->
  jobs:Mapreduce.Types.job list ->
  unit ->
  results
(** Simulate to completion of every job.  With [~validate:true] the simulator
    additionally checks, as events execute, that no unit slot ever runs two
    tasks at once, that reduces never start before the job's maps are all
    done, that no task starts before its job's s_j, that no task starts on a
    crashed resource or a negative slot, and that no task completes twice;
    at run end it checks that every submitted task completed (completeness)
    — an end-to-end oracle over the whole manager + matchmaker + simulator
    pipeline.  Task ids must be unique across [jobs], and a plan may
    dispatch only their tasks.
    @raise Invalid_argument on a repeated task id.

    [~chaos] (default: {!Chaos.no_faults}) injects the given fault plan; the
    run remains fully deterministic (the plan is data, not randomness).

    With [~journal] the simulator appends its side of the decision journal
    (the manager writes its own events through {!Mrcp.Manager.config}):
    one "arrival" event per job, a terminal "job-done" event with the
    lateness attribution split (queue wait / execution / solver overhead)
    plus the job's final "sla" verdict, fault events ("resource-crash" with
    the killed task ids and lost slot-time, "resource-rejoin",
    "task-attempt-failed", "straggler"), and a closing "run-end" event
    carrying the run totals (Σ N_j, O, fault counters, lost work) that
    {!Report.Audit} independently recomputes.  [~metrics_every] (virtual ms,
    requires [~journal]) additionally dumps a metrics snapshot event at
    every multiple of the period; snapshot bodies sit under the journal's
    wall key because wall-clock histograms are not deterministic.
    @raise Failure on a validation violation. *)

val pp_results : Format.formatter -> results -> unit
