(** A matchmaking-and-scheduling problem instance, as seen by a solver at one
    MRCP-RM invocation (paper Table 2).

    The instance is expressed against the *combined* resource of paper §V.D:
    one virtual resource holding every map slot and every reduce slot of the
    cluster.  Solvers produce start times on the combined resource; the
    matchmaker (in [lib/core]) then distributes tasks over physical resources.

    Tasks of a job are split into:
    - [pending_*]: not started — the solver must (re)assign their start times;
    - [fixed_*]: started but not completed (isPrevScheduled) — they occupy
      capacity at a frozen [start, start+e) window and the solver must not
      move them;
    - completed tasks are not in the instance; their influence survives via
      [frozen_lfmt] (precedence floor for reduces) and [frozen_completion]
      (floor of the job's completion time, for lateness accounting). *)

type fixed_task = { task : Mapreduce.Types.task; start : int }

type pending_job = {
  job : Mapreduce.Types.job;
  est : int;  (** effective earliest start: max(s_j, now) per Table 2 l.1-4 *)
  pending_maps : Mapreduce.Types.task array;
  pending_reduces : Mapreduce.Types.task array;
  fixed_maps : fixed_task array;
  fixed_reduces : fixed_task array;
  frozen_lfmt : int;
      (** latest completion among completed+fixed map tasks; 0 if none *)
  frozen_completion : int;
      (** latest completion among all completed+fixed tasks; 0 if none *)
}

(** The task index.  Each pending task has a dense index, fixed once per
    instance: jobs in [jobs] order, and within a job its [pending_maps] then
    its [pending_reduces].  Job [jdx]'s maps are
    [first.(jdx) .. first.(jdx) + |pending_maps| - 1], its reduces follow,
    and [first.(|jobs|)] is the pending task count.  Start times of one
    schedule ({!Solution.t}, a warm start, a search view) are [int array]s
    over this index.  The record is private so that [first] always matches
    [jobs]: build instances with {!make}, {!with_jobs} or
    {!of_fresh_jobs}. *)
type t = private {
  now : int;
  map_capacity : int;  (** total map slots of the cluster *)
  reduce_capacity : int;  (** total reduce slots *)
  jobs : pending_job array;
  first : int array;  (** dense index of each job's first pending task *)
}

val make :
  now:int -> map_capacity:int -> reduce_capacity:int -> pending_job array -> t
(** The instance over [jobs] (not copied), with its task index. *)

val with_jobs : t -> pending_job array -> t
(** Same clock and capacities, other jobs (re-indexed). *)

val of_fresh_jobs :
  now:int ->
  map_capacity:int ->
  reduce_capacity:int ->
  Mapreduce.Types.job list ->
  t
(** Instance where nothing has started yet (closed-system case / first
    invocation): every task pending, est = max(s_j, now). *)

val pending_task_count : t -> int
(** [first.(|jobs|)]: the length of every start array over [t]. *)

val pending_tasks : t -> Mapreduce.Types.task array
(** The pending tasks by task index (a fresh array). *)

val task_index : t -> task_id:int -> int
(** The dense index of a pending task, by a linear scan (for tests and
    boundary conversions; hot paths walk the index directly).
    @raise Not_found when no pending task has that id. *)

val fixed_task_count : t -> int

val pending_exec_total : pending_job -> int
(** Σ e_t over pending tasks (for the laxity ordering). *)

val laxity : pending_job -> int
(** d_j - est - Σ pending e_t, the least-laxity-first key (§VI.B). *)

val default_horizon : t -> int
(** A horizon provably large enough to contain some optimal semi-active
    schedule: max est + total pending work + max frozen end. *)

val pp : Format.formatter -> t -> unit
