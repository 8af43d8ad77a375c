(** The canonical solver-telemetry record.

    Every solve of the MapReduce solver ({!Cp.Solver}, also run by
    {!Cp.Session}) reports this shape; the solver re-exports it (OCaml's
    [type t = Obs.Solve_stats.t = {...}] idiom) rather than declaring its
    own copy of the node/failure/LNS fields. *)

type stop_reason =
  | Proved  (** search (or a bound match) established optimality outright *)
  | Hit_carried_bound
      (** proved, but only thanks to a session-carried optimality
          certificate raising the classic lower bound ({!Cp.Session}) *)
  | Cache_hit
      (** warm-start plan cache hit: the carried plan already met the
          bound, no search ran *)
  | Fail_limit  (** stopped by [fail_limit] with the incumbent unproved *)
  | Node_limit  (** stopped by [node_limit] *)
  | Wall_limit  (** stopped by the wall-clock deadline *)
  | Lns_stall
      (** large-neighbourhood search gave up after [lns_max_stall]
          non-improving moves *)

val stop_reason_to_string : stop_reason -> string
(** Stable snake_case name, used for metrics counters
    ([solver/stop/<name>]) and journal events. *)

val all_stop_reasons : stop_reason list

type t = {
  seed_late : int;  (** late jobs in the starting incumbent *)
  lower_bound : int;  (** provable lower bound on Σ N_j *)
  proved_optimal : bool;
  warm_seeded : bool;
      (** the starting incumbent was the warm-start candidate carried over
          from a previous plan (always [false] for a solve given no warm
          start, see {!Cp.Solver.incumbent}) *)
  stop_reason : stop_reason;
      (** why the solve returned — the explicit cause, not guesswork
          reconstructed from counters *)
  nodes : int;  (** branch-and-bound nodes explored *)
  failures : int;  (** search failures (dead ends) *)
  lns_moves : int;  (** large-neighbourhood moves attempted (0: pure B&B) *)
  elapsed : float;  (** wall-clock seconds spent *)
  seed_s : float;
      (** wall-clock seconds of [elapsed] spent on the lower bound and the
          starting incumbent (greedy seed or warm candidate):
          [bound_s +. warm_s +. list_s] *)
  bound_s : float;
      (** the part of [seed_s] spent preparing the pass: the pending tasks,
          the frozen tasks' profiles, each job's solo doom and the classic
          lower bound *)
  warm_s : float;
      (** the part of [seed_s] spent completing the carried plan into a
          warm candidate; 0 without a warm start *)
  list_s : float;
      (** the part of [seed_s] spent on list schedules: the EDF schedule a
          warm candidate races, and the multi-ordering greedy seed *)
  sync_s : float;
      (** wall-clock seconds of [elapsed] spent bringing a persistent
          session store in line with the instance ({!Cp.Session}: the store
          diff and its root propagation); 0 without a session, and when the
          seed settled the solve *)
  search_s : float;
      (** wall-clock seconds of [elapsed] spent in the exact search (after
          the sync) or in LNS; 0 when the seed settled the solve *)
  metrics : Metrics.snapshot option;
      (** per-propagator and solver metrics; [None] unless the solve ran
          with instrumentation enabled *)
}

val pp : Format.formatter -> t -> unit

val to_metrics : t -> Metrics.snapshot
(** The record's scalar fields as a snapshot (counters [solver/*],
    including [solver/stop/<reason>]; histograms [solver/solve_s],
    [solver/seed_s] with its parts [solver/bound_s], [solver/warm_s] and
    [solver/list_s], [solver/sync_s] and [solver/search_s]), merged over
    [metrics] when present
    — the machine-readable payload. *)
