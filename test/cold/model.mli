(** CP model of the paper's Table-1 formulation, built over a
    {!Sched.Instance.t} (combined-resource form, §V.D): a fresh store per
    instance, the tests' cold reference for {!Cp.Session}'s persistent
    store, which appends the same rows job by job.

    Decision variables per pending task: an integer start time (the paper's
    a_t, realized as an interval of fixed length e_t).  Per job: an LFMT
    variable (max of map completions — constraint (3)), a completion variable
    (max of reduce completions / LFMT), and a 0/1 lateness variable N_j
    (constraint (4)).  Two time-table constraints — one over map slots, one
    over reduce slots — encode constraints (5)/(6); frozen
    (isPrevScheduled) tasks enter them as root-fixed start variables, so
    their whole execution occupies the pool (§V.B line 11).  The objective
    cut Σ N_j < [bound] is the session's growable cut, posted once over
    every N_j.
    Matchmaking (constraint (1) / the x_tr variables) is resolved after
    solving by the matchmaker in [lib/core], exactly as §V.D separates the
    two concerns. *)

type task_var = {
  var : Cp.Store.var;
  task : Mapreduce.Types.task;
  job_index : int;  (** index into the instance's jobs array *)
}

type t = {
  store : Cp.Store.t;
  instance : Sched.Instance.t;
  starts : task_var array;  (** every pending task, by task index *)
  lates : Cp.Store.var array;  (** N_j per job, aligned with instance.jobs *)
  completions : Cp.Store.var array;  (** C_j per job *)
  bound : int ref;  (** strict upper bound on Σ N_j for branch-and-bound *)
  bound_pid : Cp.Store.propagator_id;
  horizon : int;
}

val build :
  ?kernel:
    (Cp.Store.t ->
    tasks:Edge_finding.term array ->
    fixed:(int * int * int) array ->
    capacity:int ->
    unit) ->
  Sched.Instance.t ->
  horizon:int ->
  t
(** Construct and post all constraints.  Does not propagate; callers run
    {!Cp.Store.propagate} (and should catch {!Cp.Store.Fail} — an instance
    can be infeasible only if the horizon is too small, since lateness is
    soft, or if running work overloads what is left of a pool).

    [kernel] posts the capacity constraint of each pool, map pool first.  It
    defaults to {!Edge_finding.capacity}; the parameter is a seam for tests
    that compare the model under other postings (a reference time table,
    the time table alone).
    @raise Cp.Store.Fail when posting finds a task, pending or frozen, wider
    than its pool. *)

val extract : t -> Sched.Solution.t
(** Read a solution once every start variable is fixed.
    @raise Invalid_argument otherwise. *)

val all_starts_fixed : t -> bool
