(** Branch-and-bound depth-first search.

    Two branching phases, both standard for CP scheduling:

    1. {e lateness phase}: pick the undecided N_j with the earliest deadline
       and try N_j = 0 first (commit to meeting the deadline, which tightens
       the job's completion and start maxima) then N_j = 1;
    2. {e SetTimes phase}: among unfixed, non-postponed start variables pick
       the one with minimal est (tie: least slack, then longest duration);
       left branch fixes start = est, right branch marks the task postponed.
       A postponed task becomes selectable again when propagation raises its
       est; a node where every unfixed task is postponed and no est moved is
       a dominated dead end, counted as a failure (so [fail_limit] bounds a
       tree of postpones too).  This scheme explores only semi-active
       schedules, which is exhaustive for regular objectives such as the
       paper's Σ N_j.

    Between the two, where the lateness phase ends on a path, a problem
    with a [propose] function tries one {e list-schedule leaf}: the
    proposal's starts are fixed in one child level, the cut re-runs, and
    the plan is recorded only if propagation accepts it.  The leaf counts
    one node (and one failure when rejected), and is tried only when the
    proposal's late count beats the bound and some start is still open.
    It prunes nothing: SetTimes runs after it as before, so an exhausted
    tree is still a proof.

    The search is one chronological DFS; the snapshot tests in
    [test/test_cp.ml] pin its trajectory (nodes, failures) on five fixed
    instances. *)

type limits = {
  fail_limit : int;  (** max failures before giving up (0 = unlimited) *)
  node_limit : int;  (** max nodes (0 = unlimited) *)
  wall_deadline : float option;
      (** {!Obs.Clock.now} cutoff (monotonic seconds, {e not}
          [Unix.gettimeofday]) *)
  target : int option;
      (** stop at the node that records a solution with Σ N_j at most this
          value, reported as {!Target_met}.  Pass a proved lower bound: no
          later solution could then beat the one just recorded, so the rest
          of the tree would only re-prove it. *)
}

val no_limits : limits
(** No limits. *)

type start_info = {
  svar : Store.var;
  duration : int;
  deadline : int;  (** of the owning job, for slack tie-breaking *)
}

type problem = {
  store : Store.t;
  starts : start_info array;  (** every pending start variable *)
  lates : (Store.var * int) array;  (** (N_j, d_j) per job *)
  bound : int ref;  (** strict upper bound on Σ N_j *)
  bound_pid : Store.propagator_id;  (** re-scheduled at every node *)
  extract : unit -> Sched.Solution.t;
      (** the schedule at a full leaf; only solutions whose true late count
          ([late_jobs]) strictly improves on the bound are kept *)
  propose : (bool array -> Sched.Solution.t) option;
      (** the list-schedule leaf's proposer: given each job's lateness
          decision ([true] for N_j = 1), by [lates] index, a plan whose
          [starts] follow [starts]' order.  It may be any plan at all: the
          store checks it before it is recorded.  [None]: no leaf. *)
}
(** The variables the search branches on, in a store it does not own:
    {!run} builds one from a {!Model}, {!Session} one over its persistent
    store. *)

(** Which condition ended the search.  [Exhausted] means the tree was
    explored to completion (or cut to emptiness by the bound) — the proof
    case; the others name the limit that cut the search. *)
type stop_cause =
  | Exhausted
  | Target_met  (** a recorded solution reached [limits.target] *)
  | Node_budget
  | Fail_budget
  | Wall_clock

val stop_reason_of_cause : stop_cause -> Obs.Solve_stats.stop_reason
(** The telemetry-level reason for a search-level cause ([Exhausted] and
    [Target_met] map to [Proved]; callers with richer context — cache hits,
    carried certificates, LNS stalls — substitute their own). *)

type outcome = {
  best : Sched.Solution.t option;
  proved_optimal : bool;
  stopped : stop_cause;
      (** [Exhausted] iff [proved_optimal]; otherwise the limit that cut
          the search *)
  nodes : int;
  failures : int;
  leaf_asked : int;  (** proposals the list-schedule leaf made *)
  leaf_tried : int;  (** of which their late count beat the bound *)
  leaf_accepted : int;
      (** of which the store accepted the plan, and the search recorded it *)
}

val run_problem : problem -> limits -> outcome
(** Explore.  [problem.bound] must hold the strict bound to beat on entry.
    SetTimes branches on the unfixed start of smallest est, then least
    slack to its job's deadline, then longest duration.

    The search treats the store level at entry as its base: the final
    unwind returns to that level, never below it, so a caller may set up
    trailed state (the armed objective cut) in a pushed guard level around
    the search — {!Session} does.  Called at the root this is the
    historical behaviour exactly. *)

val run : Model.t -> limits -> outcome
(** {!run_problem} specialized to the Table-1 MapReduce model. *)
