(** Adapter interface between the event simulator and a resource manager.

    Two reaction styles exist in this repo:
    - {e plan-based} managers (MRCP-RM) publish, at each invocation, a full
      plan of future (resource, slot, start) dispatches for every task that
      has not started; the simulator reconciles its pending start events
      against the new plan (tasks may be re-mapped and re-scheduled until the
      moment they start — Table 2's remapping behaviour);
    - {e immediate} managers (MinEDF-WC and the other slot schedulers)
      return tasks to launch right now whenever a slot frees or a job
      arrives. *)

type reaction =
  | Full_plan of Sched.Dispatch.t list
      (** authoritative plan for every unstarted task *)
  | Launch of Sched.Dispatch.t list
      (** start these now (all starts = now); previously launched tasks are
          unaffected *)
  | No_change
      (** the manager did not re-plan; keep all pending start events *)

type t = {
  name : string;
  submit : now:int -> Mapreduce.Types.job -> unit;
  task_completed : now:int -> task_id:int -> unit;
  task_started : now:int -> task_id:int -> exec_ms:int -> unit;
      (** chaos only: an attempt started with an execution time that differs
          from the nominal one (a {!Chaos.Straggler}); [exec_ms] is the
          actual duration.  Never called in fault-free runs. *)
  task_attempt_failed : now:int -> task_id:int -> unit;
      (** chaos only: the running attempt aborted; the task must re-enter the
          manager's open set and be re-executed from scratch *)
  resource_lost : now:int -> resource_id:int -> lost:int list -> unit;
      (** the resource crashed; [lost] are the task ids whose in-flight
          attempts were killed.  An explicit topology notification — not an
          overload of [react] — so immediate schedulers (MinEDF-WC) also
          stop dispatching to dead resources. *)
  resource_rejoined : now:int -> resource_id:int -> unit;
      (** a crashed resource is accepting work again *)
  react : now:int -> reaction;
      (** called after every submit / completion / fault / wake *)
  next_wake : now:int -> int option;
  overhead_seconds : unit -> float;
  max_invocation_seconds : unit -> float;
      (** longest single scheduling pass (0 when not tracked) *)
  job_overhead_seconds : int -> float;
      (** wall-clock scheduling overhead attributed to one job
          ({!Mrcp.Manager.job_overhead_seconds}); 0 when not tracked — only
          the MRCP manager with journaling enabled accumulates it *)
  solve_count : unit -> int;
  metrics : unit -> Obs.Metrics.snapshot option;
      (** accumulated manager/solver telemetry ({!Mrcp.Manager.metrics});
          [None] for managers without instrumentation *)
  description : string;
}

val of_mrcp : Mrcp.Manager.t -> t
(** Wrap an MRCP-RM manager (plan-based). *)

val of_slot_scheduler : Baselines.Slot_scheduler.t -> t
(** Wrap a slot scheduler (immediate). *)

(** {1 Managers by name} *)

type kind =
  | Mrcp_rm  (** the paper's contribution *)
  | Min_edf_wc  (** Verma et al. [8], the Fig. 2/3 comparator *)
  | Edf_wc  (** ablation: work-conserving EDF without min allocation *)
  | Fcfs_wc  (** ablation: FCFS *)
  | Greedy_only
      (** ablation: the MRCP-RM pipeline with the CP improvement search
          disabled (greedy seed only) — isolates the CP solver's
          contribution *)

val kinds : (string * kind) list
(** Every kind under its name ([--manager] in the CLIs, the [manager] field
    of DST repro files), in that order. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val plan_based : kind -> bool
(** [true] for the two kinds that run {!Mrcp.Manager} ([Mrcp_rm],
    [Greedy_only]). *)

val make :
  kind -> cluster:Mapreduce.Types.resource array -> Mrcp.Manager.config -> t
(** The driver a kind names, on [cluster].  The plan-based kinds create an
    {!Mrcp.Manager} from the config; [Greedy_only] first zeroes its solver's
    exact-search task limit, LNS stall limit and time limit, so every pass
    keeps the greedy seed; its driver is named ["greedy-only"].  The slot
    schedulers ignore the config. *)
