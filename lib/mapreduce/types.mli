(** Domain model of the matchmaking and scheduling problem (paper §III.A).

    A workload is a set of MapReduce jobs; each job [j] carries a set of map
    tasks, a set of reduce tasks, an earliest start time [s_j], and an
    end-to-end deadline [d_j].  Each task has an execution time and a resource
    capacity requirement [q_t] (normally 1).  Resources have independent map
    and reduce slot capacities.

    All times are integer milliseconds of virtual time. *)

type task_kind = Map_task | Reduce_task

type task = {
  task_id : int;  (** unique within the workload *)
  job_id : int;
  kind : task_kind;
  exec_time : int;  (** e_t, in ms; includes I/O and shuffle per the paper *)
  capacity_req : int;  (** q_t; the paper sets this to 1 *)
}

type job = {
  id : int;
  arrival : int;  (** v_j: when the job enters the system *)
  earliest_start : int;  (** s_j >= arrival *)
  deadline : int;  (** d_j, absolute *)
  map_tasks : task array;
  reduce_tasks : task array;
}

type resource = {
  res_id : int;
  map_capacity : int;  (** c_r^mp: map slots *)
  reduce_capacity : int;  (** c_r^rd: reduce slots *)
}

val task_kind_to_string : task_kind -> string
val pp_task : Format.formatter -> task -> unit
val pp_job : Format.formatter -> job -> unit
val pp_resource : Format.formatter -> resource -> unit

val job_tasks : job -> task list
(** Map tasks then reduce tasks. *)

val task_count : job -> int

val total_exec_time : job -> int
(** Sum of all task execution times (used in the laxity formula). *)

val total_map_time : job -> int

val laxity : job -> int
(** L_j = d_j - s_j - sum of task execution times (paper §VI.B). *)

val validate_job : job -> (unit, string) result
(** Structural sanity: tasks belong to the job, kinds match the arrays,
    non-negative times, [earliest_start >= arrival], positive capacity
    requirements. *)

val uniform_cluster :
  m:int -> map_capacity:int -> reduce_capacity:int -> resource array
(** [m] identical resources, ids 0..m-1 (Table 3's system parameters).
    @raise Invalid_argument when [m], [map_capacity] or [reduce_capacity]
    is not positive. *)

val total_map_slots : resource array -> int
val total_reduce_slots : resource array -> int

val minimum_execution_time : job -> resource array -> int
(** TE of Table 3: the job's minimal completion-time span when it is alone on
    the cluster — an LPT list-schedule of the map tasks over all map slots,
    followed by the reduce tasks over all reduce slots.  Exact when each phase
    fits in one wave (the common case in the paper's configurations). *)
