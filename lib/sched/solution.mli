(** Solver output on the combined resource: a start time per pending task,
    plus the objective values the paper optimizes (number of late jobs, with
    total tardiness as a search tie-breaker), and a feasibility checker that
    re-verifies every constraint of the paper's Table 1 against a concrete
    solution — the oracle used by tests and (in debug mode) by the manager. *)

type t = {
  starts : (int, int) Hashtbl.t;  (** task_id → assigned start time *)
  late_jobs : int;  (** Σ N_j *)
  total_tardiness : int;  (** Σ max(0, C_j − d_j) *)
}

val start_of : t -> task_id:int -> int
(** @raise Not_found when the task has no assigned start. *)

val better : t -> t -> bool
(** [better a b]: does [a] strictly improve on [b] (fewer late jobs, or equal
    late jobs and less tardiness)? *)

val job_completion : Instance.pending_job -> (int, int) Hashtbl.t -> int
(** Completion time of a job under the given start map: max over pending task
    completions and the frozen floor. *)

val job_lfmt : Instance.pending_job -> (int, int) Hashtbl.t -> int
(** Latest finishing map task (pending + frozen). *)

val evaluate : Instance.t -> (int, int) Hashtbl.t -> t
(** Compute the objective from a start map. *)

val tally :
  Instance.t ->
  (int, int) Hashtbl.t ->
  completion:(int -> Instance.pending_job -> int) ->
  t
(** {!evaluate} with each job's completion supplied by the caller
    ([completion jdx job], [jdx] indexing [inst.jobs]) instead of read back
    from the start map; a list scheduler already knows it. *)

val feasibility_errors : Instance.t -> t -> string list
(** Empty when the solution satisfies, for every job: completeness (every
    pending task has a start), est (maps not before est — Table 1 (2)),
    precedence (reduces not before the job's LFMT — (3)), non-preemption
    of fixed tasks, and the combined map/reduce capacity profiles (5)(6).
    Late-job accounting (4) is also cross-checked. *)

val pp : Format.formatter -> t -> unit
