(** Greedy list scheduling on the combined resource.

    Serial schedule-generation scheme: jobs in a priority order (the paper's
    three job-ordering strategies, §VI.B), each job's pending map tasks placed
    longest-first at their earliest capacity-feasible time ≥ est, then its
    reduces longest-first at their earliest feasible time ≥ the job's latest
    finishing map task.  Fixed (running) tasks pre-occupy the profiles.

    The result is always feasible.  It serves as (a) the seed/incumbent for
    the CP solver's branch-and-bound, and (b) a baseline in its own
    right (a deadline-aware but non-backtracking scheduler). *)

type order =
  | By_job_id  (** submission order (paper strategy 1) *)
  | Edf  (** earliest deadline first (strategy 2) *)
  | Least_laxity  (** least laxity first (strategy 3) *)

val order_to_string : order -> string

(** One instance prepared for several list schedules.  The fixed tasks'
    profiles are built once, and each schedule resets two working profiles
    from them, which keep the room they grew to; the pending tasks' fields
    sit in int arrays over the task index; each job's placement order is
    sorted once, and the jobs' EDF order once.  Every schedule from a
    [pass] equals the matching {!solve} / {!solve_with_sequence} on its
    instance.  A pass is scratch space for one caller: its schedules run
    one at a time. *)
type pass

(** Working profiles a caller keeps for the passes it prepares one after
    another, so that each pass starts on profiles that already have the
    room the last one grew them to.  Empty when made. *)
type scratch

val scratch : unit -> scratch

val prepare : ?scratch:scratch -> Instance.t -> pass
(** With [scratch], the pass works on its profiles: it stays valid until
    the next [prepare] on the same scratch. *)

val tasks : pass -> Mapreduce.Types.task array
(** The instance's pending tasks by task index
    ({!Instance.pending_tasks}), built once by {!prepare}; shared, not to be
    mutated. *)

val edf_order : pass -> int array
(** The job indices in {!Edf} order (deadline, ties to the lower job id),
    sorted on the first call and then shared; not to be mutated. *)

val schedule : ?order:order -> pass -> Solution.t
(** [solve ~order] on the prepared instance. *)

val schedule_sequence : pass -> int array -> Solution.t
(** [solve_with_sequence] on the prepared instance, without the permutation
    check. *)

val completion : pass -> int -> int
(** [completion p jdx]: job [jdx]'s completion in the last schedule (or
    completion) run on [p], its frozen floor included; what that
    schedule's late count was tallied from. *)

val schedules_run : pass -> int
(** The schedules and completions run on [p] so far. *)

val complete :
  pass -> carried:int array -> covered:bool array -> Solution.t * bool
(** Warm-start completion.  Every pending task of a job flagged in
    [covered] keeps its start from [carried], an array over the instance's
    task index; the other jobs are list-scheduled around them in {!Edf}
    order ([carried] is not read for them).  The flag is [true] iff the
    result satisfies Table 1: the covered starts respect est and their
    job's map finishes, and neither pool's capacity is exceeded anywhere,
    fixed tasks included.  The placed jobs satisfy est and precedence by
    construction. *)

val solve : ?order:order -> Instance.t -> Solution.t
(** Default order is {!Edf} (the configuration the paper reports). *)

val solve_with_sequence : Instance.t -> int array -> Solution.t
(** Schedule jobs in the explicit sequence of indices into [inst.jobs]
    (one list schedule of a given job order).  The sequence must be a
    permutation of all job indices. *)
