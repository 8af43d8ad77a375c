(** Matchmaking and scheduling for DAG workflows: the Table-1 CP model
    generalized from the fixed map→reduce barrier to arbitrary stage
    precedence, solved with the same machinery (greedy seed, per-job lower
    bound, exact branch-and-bound via {!Cp.Search.run_problem}).

    This is a closed-batch solver (the §VII future-work scenario); the
    open-system manager remains MapReduce-specific. *)

type instance = {
  map_capacity : int;  (** pool capacity for [Map_task]-pool stages *)
  reduce_capacity : int;  (** pool capacity for [Reduce_task]-pool stages *)
  jobs : Dag.t array;
}

type solution = {
  starts : (int, int) Hashtbl.t;  (** task_id → start *)
  late_jobs : int;
  total_tardiness : int;
}

val evaluate : instance -> (int, int) Hashtbl.t -> solution
(** Objective values from a start map (all tasks must be present). *)

val greedy : instance -> solution
(** EDF-ordered serial schedule generation: per job, stages in topological
    order, each stage's tasks placed longest-first at their earliest
    capacity-feasible time after all predecessor stages complete.  Always
    feasible. *)

val lower_bound : instance -> int
(** Jobs late in every schedule: est + critical path already misses d_j. *)

val feasibility_errors : instance -> solution -> string list
(** Constraint oracle: completeness, earliest start times, stage precedence,
    pool capacities, and objective accounting. *)

(** The repo-wide solver-telemetry record ({!Obs.Solve_stats.t}) — the same
    type {!Cp.Solver.stats} re-exports, so workflow and MapReduce solves
    share one stats shape.  [lns_moves] is always 0 here (this solver is
    pure B&B). *)
type stats = Obs.Solve_stats.t = {
  seed_late : int;
  lower_bound : int;
  proved_optimal : bool;
  warm_seeded : bool;  (** always [false]: the DAG solver has no warm start *)
  stop_reason : Obs.Solve_stats.stop_reason;
      (** [Proved] or the limit that cut the search — never the
          cache/session/LNS reasons, which don't exist here *)
  nodes : int;
  failures : int;
  lns_moves : int;
  elapsed : float;
  seed_s : float;
  search_s : float;
  metrics : Obs.Metrics.snapshot option;
}

val solve :
  ?limits:Cp.Search.limits -> ?instrument:bool -> instance -> solution * stats
(** Greedy seed, then exact branch-and-bound when the seed does not meet the
    lower bound.  Never fails; at worst returns the seed.  With
    [~instrument:true], [stats.metrics] carries the store counters and the
    per-propagator fire/fail/time metrics, harvested by {!Cp.Store.harvest}
    under the same names {!Cp.Solver} reports. *)
