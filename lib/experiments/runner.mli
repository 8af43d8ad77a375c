(** Shared experiment runner: one "point" = one (workload, system, manager)
    configuration, replicated over several seeds, summarizing the paper's
    four metrics.  Used by bin/experiments.ml (figure regeneration) and
    bin/mrcp_sim.ml. *)

type config = {
  n_jobs : int;  (** jobs per replication *)
  reps : int;  (** replications (paper: until CI ±1%; here fixed count) *)
  base_seed : int;
  manager : Opensim.Driver.kind;
  ordering : Sched.Greedy.order;  (** MRCP-RM job-ordering strategy *)
  solver_time_limit : float;  (** per-invocation CP budget, seconds *)
  deferral_window : int option;  (** §V.E, ms *)
  validate : bool;
  instrument : bool;
      (** collect solver/propagator metrics into [point.metrics] (MRCP-RM
          managers only) *)
  journal : Obs.Journal.t option;
      (** decision journal shared by the manager and the simulator
          ([--journal] in the CLIs).  One journal spans every replication:
          rep i+1's events append after rep i's.  Use [reps = 1] for
          per-run audit files. *)
  metrics_every : int option;
      (** with [journal]: virtual ms between metrics-snapshot journal
          events ([--metrics-every], which takes seconds, in the CLIs) *)
  chaos : Opensim.Chaos.config option;
      (** [Some c]: materialize a fault plan per replication (from the
          replication's seed, {!Opensim.Chaos.materialize}) and run the
          simulation under injected crashes / stragglers / attempt failures
          ([--crash-rate] etc. in mrcp_sim).  [None] (default) runs
          fault-free and bit-identical to a chaos-free build. *)
}

val default_config : config
(** 200 jobs, 3 reps, MRCP-RM, EDF, 0.2 s budget, 1 domain, 300 s deferral
    window. *)

type point = {
  label : string;
  config : config;
  o_s : Simstats.Confidence.interval option;  (** O: overhead per job, s *)
  t_s : Simstats.Confidence.interval option;  (** T: turnaround, s *)
  p_late : float;  (** P: pooled late fraction over all reps *)
  n_late_mean : float;  (** N per replication *)
  o_mean : float;
  t_mean : float;
  solves_mean : float;
  elapsed_s : float;  (** wall-clock cost of producing this point *)
  metrics : Obs.Metrics.snapshot option;
      (** merged over replications; [None] unless [config.instrument] *)
}

val run_synthetic :
  ?label:string ->
  ?m:int ->
  ?map_capacity:int ->
  ?reduce_capacity:int ->
  params:Mapreduce.Synthetic.params ->
  config:config ->
  unit ->
  point
(** Table-3 synthetic workload on an m-resource cluster (defaults m=50,
    2 map + 2 reduce slots — the paper's defaults). *)

val run_facebook :
  ?label:string ->
  params:Mapreduce.Facebook.params ->
  config:config ->
  unit ->
  point
(** Table-4 Facebook workload on the 64×(1,1) cluster of Fig. 2/3. *)

val make_driver : config -> Mapreduce.Types.resource array -> Opensim.Driver.t
(** The driver of [config.manager] on the cluster ({!Opensim.Driver.make}):
    one replication's manager. *)

val point_row : point -> string list
(** [label; O; T; P; N] formatted for {!Report.Table}. *)

val point_headers : string list
