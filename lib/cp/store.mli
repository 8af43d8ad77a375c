(** Constraint store: trailed integer variables with bounds domains, a
    propagation queue, and chronological backtracking.

    This is the kernel under the scheduling model of paper Table 1.  Domains
    are intervals [min, max] — bounds consistency is the standard (and
    sufficient) level for scheduling propagators such as [cumulative]; the
    0/1 lateness variables are intervals of size ≤ 2.

    Failure is signalled with the {!Fail} exception, caught by the search.

    {b Locality.}  Every piece of mutable state — bounds arrays, watcher
    lists, propagator queue, trail vectors, statistics counters — lives
    inside the [t] record; the module has no top-level mutable state and
    registered propagator closures only capture variables of their own
    store, so distinct stores are fully independent.  Keep it that way —
    any new global cache or counter added here must become a field of
    [t]. *)

exception Fail of string
(** Raised when a domain empties or a propagator detects inconsistency. *)

type t
type var = int

val create : unit -> t

val new_var : t -> min:int -> max:int -> var
(** Fresh variable with the given bounds.  [min <= max] required. *)

val min_of : t -> var -> int
val max_of : t -> var -> int
val is_fixed : t -> var -> bool
val value : t -> var -> int
(** @raise Invalid_argument if not fixed. *)

(** {2 Bulk read-only view of the bounds}

    [mins t] and [maxs t] are the store's own bound arrays, not copies:
    [(mins t).(v) = min_of t v] and [(maxs t).(v) = max_of t v] for every
    variable [v], and the arrays keep reflecting every later {!set_min},
    {!set_max} and backtrack.  The view is valid until the next {!new_var},
    which may replace the arrays when it grows them; take it afresh at the
    start of every propagator run or search step rather than keeping it
    across registrations.  Indices at or beyond the number of variables hold
    garbage.  Never write through the view: a write would bypass the trail
    and the watch lists.

    Hot loops read bounds through this view.  The dev build profile compiles
    with [-opaque], which hides [min_of] and friends from the inliner, so
    each per-element accessor call is a real cross-module call.  Some read
    it without bounds checks: they check each variable they index against
    [Array.length (mins t)] once, when it is registered with them, which
    stays sound because the arrays only ever grow. *)

val mins : t -> int array
val maxs : t -> int array

val set_min : t -> var -> int -> unit
(** Raise the lower bound.  No-op if already at least that.  @raise Fail when
    it would cross the upper bound.  Above the root the old bound goes on
    the trail for {!backtrack}; at the root ({!level} 0) it does not: no
    backtrack can undo a root write, so a long-lived store's root writes
    leave nothing behind. *)

val set_max : t -> var -> int -> unit
(** Lower the upper bound; the mirror of {!set_min}, trailed the same way. *)

val fix : t -> var -> int -> unit

(** {2 Propagators} *)

type propagator_id

val register :
  t ->
  ?priority:int ->
  ?name:string ->
  ?idempotent:bool ->
  ?on_event:(var -> unit) ->
  (t -> unit) ->
  propagator_id
(** Add a propagator.  Lower [priority] runs first (default 1; use 0 for
    cheap binary constraints, 2 for heavy global constraints).  The function
    is called with the store and must prune via [set_min]/[set_max] or raise
    {!Fail}.  [name] (default ["anon"]) labels the propagator in
    {!propagator_metrics}; instances registered under the same name are
    aggregated.

    [idempotent] (default [false]) declares that immediately re-running the
    propagator on the store state it just produced is a no-op — true for
    functional bound rules such as [y = max_i x_i] whose reads and writes do
    not feed back within one run.  The store then drops the propagator's
    {e self}-notifications (its own writes re-queueing itself), which is the
    main source of redundant wakeups; foreign wakeups are never dropped, so
    the propagation fixpoint — and hence the search trajectory — is
    unchanged.  Declare it only when the no-op property genuinely holds:
    e.g. [cumulative] is {e not} idempotent (pruning a start grows its own
    compulsory part, enabling further pruning on re-run).

    [on_event], when given, is called with the variable on every bound
    event of a variable the propagator watches, before the wakeup test and
    also for the propagator's own writes: an incremental propagator keeps
    the list of what moved since its last run this way.  Bounds restored by
    {!backtrack} raise no event; compare {!backtracks} to notice them. *)

val watch_min : t -> var -> propagator_id -> unit
(** Wake the propagator when the variable's {e lower} bound rises. *)

val watch_max : t -> var -> propagator_id -> unit
(** Wake the propagator when the variable's {e upper} bound drops. *)

val watch : t -> var -> propagator_id -> unit
(** Wake on any bound change: [watch_min] + [watch_max]. *)

val unwatch : t -> var -> propagator_id -> unit
(** Remove every watch of [pid] on [var] (both event lists): the
    propagator is never again notified of the variable's changes.  Used by
    {!Session} to unhook retracted tasks from their pool propagators.  Cost
    is linear in the variable's watch-list lengths. *)

val schedule : t -> propagator_id -> unit
(** Explicitly enqueue (for the initial run after registration, and whenever
    a non-variable input — e.g. an objective bound ref — changed, which the
    watch lists cannot see).  Never subject to wakeup suppression. *)

val propagate : t -> unit
(** Run the queue to fixpoint.  @raise Fail on inconsistency. *)

(** {2 Backtracking} *)

val push_level : t -> unit
val backtrack : t -> unit
(** Undo to the most recent level.  @raise Invalid_argument at root. *)

val level : t -> int
(** Current depth (0 at root). *)

val trail_length : t -> int
(** Bound changes on the trail now: those made above the root since the
    levels still open were pushed.  0 at the root. *)

val backtracks : t -> int
(** Levels popped so far, by {!backtrack} and {!backtrack_to}.  A
    propagator that caches bounds between runs and tracks changes through
    [on_event] re-reads every bound when this moved since its last run:
    undone bounds raise no event. *)

val backtrack_to : t -> int -> unit
(** [backtrack_to t n] pops levels until {!level} is [n] and clears the
    propagation queues.  Lets a search started above the root (e.g. inside a
    {!Session} guard level) reset to its own entry level instead of
    unwinding state it does not own.  @raise Invalid_argument when [n] is
    negative or above the current level. *)

(** {2 Introspection} *)

val stats_propagations : t -> int
(** Number of propagator executions so far (for benchmarks). *)

val stats_wakeups_skipped : t -> int
(** Wakeups suppressed by the modification-timestamp rule: notifications of
    propagators already at fixpoint for the change (idempotent
    self-notifications).  Each would have been a queued no-op execution. *)

val stats_tt_prunes : t -> int
val stats_tt_edits : t -> int
(** The time table's work so far: tasks pruned and profile edits (see
    {!note_tt_prune}). *)

val note_tt_prune : t -> unit
val note_tt_edits : t -> int -> unit
(** Counter hooks for the time table ({!Propagators.cumulative_dyn}; all
    state lives in [t]): [note_tt_prune] once per task it prunes
    ([prop/tt_prunes]), [note_tt_edits] once per compulsory part it adds
    to, removes from or moves in its profile ([prop/tt_edits]).  Both are
    deterministic: a function of the search, not of the clock. *)

(** {2 Per-propagator telemetry}

    Off by default.  When enabled via {!set_instrumented}, the propagation
    loop counts each propagator's executions ([fires]), {!Fail}s raised
    ([fails]) and cumulative wall time.  The only cost on the uninstrumented
    path is a single bool load per propagator execution, and instrumentation
    never changes pruning, so search trajectories are identical either way. *)

val set_instrumented : t -> bool -> unit
val instrumented : t -> bool

type prop_metric = {
  prop_name : string;  (** the [name] given at {!register} time *)
  fires : int;
  fails : int;
  time_s : float;
}

val propagator_metrics : t -> prop_metric list
(** Telemetry aggregated over propagator instances sharing a name, sorted by
    name.  All-zero entries are included (one per registered name). *)

(** {2 Metrics harvest} *)

type telemetry_mark
(** The store's counters and per-propagator telemetry at one moment. *)

val telemetry_mark : t -> telemetry_mark

val harvest : ?since:telemetry_mark -> Obs.Metrics.t -> t -> unit
(** Add the store's counters ([store/propagations], [prop/wakeups_skipped],
    [prop/tt_prunes], [prop/tt_edits]) and per-propagator
    [prop/<name>/fires], [/fails] and [/time_s] into a registry, counted
    since [since] (a mark of this store) or since creation.  Every searched
    store reports through it. *)
