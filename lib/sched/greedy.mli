(** Greedy list scheduling on the combined resource.

    Serial schedule-generation scheme: jobs in a priority order (the paper's
    three job-ordering strategies, §VI.B), each job's pending map tasks placed
    longest-first at their earliest capacity-feasible time ≥ est, then its
    reduces longest-first at their earliest feasible time ≥ the job's latest
    finishing map task.  Fixed (running) tasks pre-occupy the profiles.

    The result is always feasible.  It serves as (a) the seed/incumbent for
    the CP solver's branch-and-bound and LNS, and (b) a baseline in its own
    right (a deadline-aware but non-backtracking scheduler). *)

type order =
  | By_job_id  (** submission order (paper strategy 1) *)
  | Edf  (** earliest deadline first (strategy 2) *)
  | Least_laxity  (** least laxity first (strategy 3) *)

val order_to_string : order -> string

(** One instance prepared for several list schedules: the fixed tasks'
    profiles are built once and copied by each schedule, and each job's
    pending tasks are sorted once.  Every schedule from a [pass] equals the
    matching {!solve} / {!solve_with_sequence} on its instance. *)
type pass

val prepare : Instance.t -> pass

val schedule : ?order:order -> pass -> Solution.t
(** [solve ~order] on the prepared instance. *)

val schedule_sequence : pass -> int array -> Solution.t
(** [solve_with_sequence] on the prepared instance, without the permutation
    check. *)

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
    (building block for LNS neighbourhood moves).  The sequence must be a
    permutation of all job indices. *)
