(** The constraint propagators needed by the paper's Table-1 model:

    - {!precedence}: start_after ≥ start_before + duration (constraint (3)
      once the per-job LFMT is expressed with {!max_of});
    - {!max_of}: y = max_i (x_i + c_i), for LFMT/LFRT;
    - {!lateness}: constraint (4), "completion > deadline ⟹ N_j = 1",
      together with the useful contrapositive "N_j = 0 ⟹ completion ≤ d";
    - {!cumulative_dyn}: constraints (5)/(6), time-table propagation with
      overload checking over a pool's variable-start tasks and frozen
      (isPrevScheduled) tasks, the latter as root-fixed starts;
    - {!sum_lt_bound_dyn}: the branch-and-bound objective cut Σ N_j < bound.

    {!Session} posts all of them, job by job, on its persistent store.

    Each function registers the propagator, wires its watches (to exactly
    the variable events its rules read — see {!Store.watch_min} etc.), and
    schedules an initial run; callers then invoke {!Store.propagate}. *)

type term = { start : Store.var; duration : int; demand : int }
(** A task as seen by a capacity propagator. *)

val ge_offset : Store.t -> Store.var -> Store.var -> int -> unit
(** [ge_offset s y x c] enforces y ≥ x + c (bounds in both directions). *)

val precedence : Store.t -> before:Store.var -> duration:int -> after:Store.var -> unit
(** [after ≥ before + duration]. *)

val max_of :
  Store.t ->
  result:Store.var ->
  vars:Store.var array ->
  offsets:int array ->
  floor:int ->
  unit
(** result = max(floor, max_i (vars.(i) + offsets.(i))).  With no terms,
    fixes result to [floor].  The propagator keeps both arrays: the caller
    hands over fresh ones and does not mutate them.
    @raise Invalid_argument when the arrays differ in length. *)

val lateness :
  Store.t -> late:Store.var -> completion:Store.var -> deadline:int -> unit
(** [late] is a 0/1 variable: completion_min > deadline forces late = 1;
    late = 0 forces completion ≤ deadline; completion_max ≤ deadline forces
    late = 0. *)

(** {1 The time table}

    One kernel serves every pool.  {!Session} registers one per slot type
    at store creation and grows and shrinks its registry — and the cut's
    variable set — at the root between searches, never during one. *)

type dyn_pool
(** A capacity propagator over a mutable task registry: the time table's
    overload test and pruning rules (the fixpoint of a kernel that rebuilds
    and sweeps the profile on every run), made incremental so that a run
    costs what changed since the last one.  It keeps its segment profile
    and edits it in place when a task's compulsory part moves, checking
    overload only where usage rose; it re-reads only the
    starts whose bound events it was sent ({!Store.register}'s [on_event]),
    and every start after a backtrack; and it re-prunes only the tasks
    whose bounds moved or whose est- or lst-window meets usage another
    task's part added where it can block.  Each run iterates to the
    propagator's own fixpoint, so it is registered idempotent.  Its work
    is counted in [prop/tt_prunes] and [prop/tt_edits]; it reads its arrays
    and the store's bound arrays without bounds checks, under the
    invariants written next to its definition. *)

val cumulative_dyn : Store.t -> capacity:int -> dyn_pool
(** Register the propagator with an empty registry (priority 2).
    @raise Invalid_argument when [capacity <= 0]. *)

val dyn_add : dyn_pool -> Store.t -> term -> unit
(** Append a task: watch its start and reschedule the pool.  Frozen tasks
    enter as fixed variables (their compulsory part is their whole
    execution window).  @raise Store.Fail when [demand > capacity].
    @raise Invalid_argument on a negative duration or demand, or a start
    that is not a variable of the store. *)

val dyn_retire : dyn_pool -> Store.t -> Store.var -> unit
(** Remove the task whose start variable is the given one: unhooks the
    pool from the variable's watch lists ({!Store.unwatch}) and reschedules.
    The caller fixes the variable at its realized start first, so removal
    never loosens the profile seen by the remaining tasks.  The registry
    slot is found through a variable-indexed table, in constant time.
    @raise Invalid_argument when the variable is not in the registry. *)

type dyn_sum
(** The objective cut Σ N_j < bound over a growable variable set. *)

val sum_lt_bound_dyn : Store.t -> bound:int ref -> dyn_sum
(** Register with an empty variable set.  Σ vars < !bound (strict); when
    Σ min reaches [!bound - 1], the remaining free vars are forced to 0.
    Reschedule {!dyn_sum_pid} after lowering [bound].  With
    [!bound = max_int] the propagator is inert — the session disarms the
    cut this way between searches. *)

val dyn_sum_add : dyn_sum -> Store.t -> Store.var -> unit
val dyn_sum_remove : dyn_sum -> Store.t -> Store.var -> unit

val dyn_sum_pid : dyn_sum -> Store.propagator_id
(** The cut's propagator token — {!Session} passes it as the search's
    [bound_pid] and reschedules it after arming the bound. *)
