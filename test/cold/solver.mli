(** {!Cp.Solver.solve} with a fresh {!Model} as its exact backend: the
    pipeline's seed, bound and fast path, then B&B on a cold store.  The
    tests compare {!Cp.Session} against it. *)

val model_search : Sched.Instance.t -> Cp.Solver.exact_search
(** B&B over a fresh {!Model} of the instance (default horizon, edge
    finding on unary-equivalent pools); its store's telemetry goes into
    the registry when given, and its sync time is 0. *)

val solve :
  ?options:Cp.Solver.options ->
  ?warm:Cp.Solver.incumbent ->
  Sched.Instance.t ->
  Sched.Solution.t * Cp.Solver.stats
(** [Cp.Solver.solve ?options ?warm ~exact:(model_search inst) inst]. *)
