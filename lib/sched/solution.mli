(** Solver output on the combined resource: a start time per pending task,
    plus the objective values the paper optimizes (number of late jobs, with
    total tardiness as a search tie-breaker), and a feasibility checker that
    re-verifies every constraint of the paper's Table 1 against a concrete
    solution — the oracle used by tests and (in debug mode) by the manager. *)

type t = {
  starts : int array;
      (** start time per pending task, over the instance's task index
          ({!Instance.t}: jobs in order, each job's pending maps then its
          pending reduces) *)
  late_jobs : int;  (** Σ N_j *)
  total_tardiness : int;  (** Σ max(0, C_j − d_j) *)
}

val start_of : Instance.t -> t -> task_id:int -> int
(** The start of one pending task of the instance [t] was made for, looked
    up by a linear scan ({!Instance.task_index}).
    @raise Not_found when the instance has no such pending task. *)

val better : t -> t -> bool
(** [better a b]: does [a] strictly improve on [b] (fewer late jobs, or equal
    late jobs and less tardiness)? *)

val job_completion : Instance.t -> int -> int array -> int
(** [job_completion inst jdx starts]: completion time of job [jdx] under
    the start array: max over its pending task completions and the frozen
    floor. *)

val job_lfmt : Instance.t -> int -> int array -> int
(** Latest finishing map task (pending + frozen) of job [jdx]. *)

val evaluate : Instance.t -> int array -> t
(** Compute the objective from a start array. *)

val feasibility_errors : Instance.t -> t -> string list
(** Empty when the solution satisfies, for every job: completeness (one
    start per pending task of the instance), est (maps not before est —
    Table 1 (2)), precedence (reduces not before the job's LFMT — (3)),
    non-preemption of fixed tasks, and the combined map/reduce capacity
    profiles (5)(6).  Late-job accounting (4) is also cross-checked. *)

val pp : Format.formatter -> t -> unit
