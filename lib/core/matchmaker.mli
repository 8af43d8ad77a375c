(** Matchmaking (paper §V.D): distribute a combined-resource schedule over
    the physical resources.

    The combined schedule (from the CP solver) gives each task a start time
    under the aggregate capacity constraint.  Matchmaking assigns each task
    to a concrete unit slot — the paper's first step ("map the tasks from
    the single resource schedule to unit capacity resources") — using the
    paper's best-fit rule: pick the slot that leaves the smallest idle gap
    before the task's start.  Because the combined schedule never runs more
    than [capacity] tasks of a kind concurrently, a slot is always available
    (interval-graph colourability), so matchmaking cannot fail.

    Unit slots are numbered globally: resource 0's map slots first, then
    resource 1's, ...; reduce slots are numbered in a separate space. *)

type t

val create : cluster:Mapreduce.Types.resource array -> t
(** Fresh matchmaker with all slots free from time [min_int]. *)

val map_slot_count : t -> int
val reduce_slot_count : t -> int

val reset : t -> unit
(** Free every slot again, as {!create} left them (disabled resources
    included: disable them again after the reset), so one matchmaker
    serves every pass of a manager.  Slot states are int arrays, so a reset
    is two fills. *)

val disable_resource : t -> resource_id:int -> unit
(** Mark every slot of a crashed resource permanently unavailable
    (free from [max_int]) while keeping the global slot numbering
    stable — best-fit assignment then never picks them, and frozen tasks on
    surviving resources keep their slot ids. *)

val occupy :
  t -> kind:Mapreduce.Types.task_kind -> slot:int -> until:int -> unit
(** Pre-load a running (frozen) task's occupation: the slot is unavailable
    until [until].  Used when rebuilding the matchmaker at an MRCP-RM
    invocation — running tasks keep their slots (they cannot migrate). *)

val assign :
  t ->
  kind:Mapreduce.Types.task_kind ->
  task:Mapreduce.Types.task ->
  start:int ->
  Sched.Dispatch.t
(** Best-fit-gap slot choice for one task.  Tasks must be assigned in
    non-decreasing [start] order (assert-checked).
    @raise Invalid_argument for tasks with [capacity_req <> 1]: matchmaking
    onto unit slots requires the paper's q_t = 1 (the CP solver itself
    handles general demands, but such schedules cannot be decomposed into
    unit slots).
    @raise Failure if no slot is free — impossible for capacity-feasible
    combined schedules, so this signals a solver bug. *)

val check_unit_demands : Mapreduce.Types.job list -> (unit, string) result
(** [Error] with {!assign}'s message when some task of the workload has
    [capacity_req <> 1], so a caller can reject such a workload before a
    matchmaking manager meets it mid-run. *)

val assign_all :
  ?on_assign:(int -> Sched.Dispatch.t -> unit) ->
  t ->
  starts:int array ->
  tasks:Mapreduce.Types.task array ->
  Sched.Dispatch.t list
(** Assign every task, [tasks.(k)] at [starts.(k)] (an instance's
    {!Sched.Solution.t} start array with {!Sched.Instance.pending_tasks}),
    in start order, ties by task id ({!Sched.Dispatch.compare_by_start});
    returns the dispatches in that order.  [on_assign k d] sees each
    dispatch with its task's index as it is made.
    @raise Invalid_argument when the two arrays differ in length. *)

val spread_evenly : slots:int -> over:int -> int array
(** The paper's redistribution example (§V.D): divide [slots] unit slots over
    [over] resources as evenly as possible — e.g. 100 slots over 30 resources
    gives 20 resources with 3 and 10 with 4.  Exposed for the generalized
    regrouping API and tested against the paper's numbers. *)
