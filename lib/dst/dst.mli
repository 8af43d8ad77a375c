(** Deterministic simulation testing (DST) over the full
    manager → matchmaker → simulator pipeline.

    One integer seed expands into a whole {!scenario} — cluster shape,
    manager choice, job stream, and a materialized {!Opensim.Chaos} fault
    plan — which {!check} executes under the simulator's invariant oracle
    ([~validate:true]: no double-booked slot, no dispatch to a crashed
    resource, reduces never precede maps, every submitted task completes
    exactly once) with the decision journal on, {e twice}, demanding
    byte-identical canonical journals (same-seed determinism).

    A violation shrinks ({!shrink}) to a minimal failing scenario by greedy
    delta-debugging — drop jobs, drop faults, round durations — and the
    result serializes to a replayable JSON repro file ({!save}/{!load},
    [mrcp_dst --replay]).

    {!mutation}s deliberately break a manager invariant (e.g. swallowing
    fault notifications); the harness must catch and shrink them — the
    standard self-test that the oracle actually bites. *)

type scenario = {
  seed : int;
  m : int;
  map_capacity : int;
  reduce_capacity : int;
  manager : Opensim.Driver.kind;
      (** the driver {!Opensim.Driver.make} builds; {!generate} draws
          MRCP-RM or one of the three slot schedulers *)
  jobs : Mapreduce.Types.job list;
  faults : Opensim.Chaos.plan;
}

type mutation =
  | No_mutation
  | Drop_attempt_failed
      (** swallow {!Opensim.Driver.t.task_attempt_failed}: the failed task
          is never re-entered, so its job never completes *)
  | Drop_resource_lost
      (** swallow {!Opensim.Driver.t.resource_lost}: the manager keeps
          planning onto the dead resource *)

val mutation_to_string : mutation -> string
val mutation_of_string : string -> mutation

val generate : seed:int -> scenario
(** Deterministically expand a seed into a scenario (small on purpose:
    1–4 resources, 1–8 jobs, moderate fault rates). *)

type outcome = {
  fingerprint : string;  (** canonical journal digest *)
  journal : string;  (** raw JSONL text *)
  results : Opensim.Simulator.results;
}

val run_once : ?mutation:mutation -> scenario -> (outcome, string) result
(** One simulation under the oracle; [Error] is the violation message. *)

type verdict =
  | Pass of { fingerprint : string }
  | Violation of { message : string }

val check : ?mutation:mutation -> scenario -> verdict
(** {!run_once} twice: any invariant violation, a failed {!Report.Audit}
    cross-check of the first run's journal (MRCP-RM scenarios — the
    baselines journal no invoke lines, so their overhead totals cannot be
    recomputed), or differing canonical journal fingerprints between the
    runs, is a {!Violation}. *)

type shrink_result = {
  minimal : scenario;
  violation : string;  (** the minimal scenario's violation message *)
  steps : int;  (** successful reductions applied *)
  runs : int;  (** simulations spent shrinking *)
}

val shrink :
  ?mutation:mutation -> ?fuel:int -> scenario -> violation:string -> shrink_result
(** Greedy minimization of a failing scenario; [fuel] (default 400) bounds
    the number of simulations. *)

val to_json : scenario -> Obs.Json.t
val of_json : Obs.Json.t -> scenario
(** @raise Failure on malformed input. *)

val save : scenario -> path:string -> unit

val load : path:string -> (scenario, string) result
(** [Error] carries the message when the file cannot be read, is not JSON,
    or is not a scenario. *)

val pp_scenario : Format.formatter -> scenario -> unit
