(** Discrete event simulation engine.

    Virtual time is an integer (the repo's convention: milliseconds).  Events
    are closures executed at their scheduled time; events scheduled for the
    same instant fire in scheduling (FIFO) order, which keeps runs
    deterministic.  Handlers may schedule further events, including at the
    current time (processed before time advances).

    The queue holds the pending events only, so [schedule], [reschedule],
    [cancel] and [step] each cost one heap operation over them, and the
    engine's memory follows the most events pending at once.  At most
    2^24 events may be pending at once and 2^38 scheduled in all. *)

type t

type handle
(** Token for a scheduled event, usable to cancel it. *)

val none : handle
(** A handle no event has; cancelling it is a no-op.  For tables of handles
    that start empty. *)

val create : ?start_time:int -> unit -> t
val now : t -> int

val schedule : ?rank:int -> t -> at:int -> (t -> unit) -> handle
(** [schedule sim ~at f] runs [f sim] when the clock reaches [at].
    Events at the same instant fire in ascending [rank] (0–3, default 1),
    then insertion order — e.g. rank 0 task-completion events are processed
    before rank 2 task-start events scheduled for the same time, so that a
    successor starting exactly when its predecessor ends observes the
    completed state.  Times must stay below 2^59 (the key packs time and
    rank).  @raise Invalid_argument if [at] is in the past. *)

val reschedule : ?rank:int -> t -> handle -> at:int -> (t -> unit) -> handle
(** [reschedule sim h ~at f] is [cancel sim h] followed by
    [schedule sim ~at f] (the new event orders after every event scheduled
    before it), in one heap operation when [h] is still pending.  Returns
    the new event's handle. *)

val schedule_after : ?rank:int -> t -> delay:int -> (t -> unit) -> handle
(** Relative form; [delay >= 0]. *)

val cancel : t -> handle -> unit
(** Takes the event out of the queue at once.  Cancelling an already-fired
    or already-cancelled event, or {!none}, is a no-op. *)

val pending : t -> int
(** Number of scheduled (uncancelled, unfired) events. *)

val step : t -> bool
(** Execute the earliest event.  Returns [false] when no events remain. *)

val run : ?until:int -> t -> unit
(** Drain the event queue.  With [~until:h], stops (clock set to [h]) once the
    next event would fire strictly after [h]; events at exactly [h] run. *)

val run_until_empty : t -> unit

val events_executed : t -> int
(** Events fired since {!create}.  When tracing is enabled the engine also
    emits a ["sim-clock"] counter series (virtual clock and queue depth)
    every 4096 events, correlating simulated time with wall time. *)
