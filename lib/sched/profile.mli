(** Resource-usage step profile over integer time.

    Tracks the total capacity in use as a piecewise-constant function of time,
    supporting the two queries every list scheduler here needs:

    - does a task of duration [d] and requirement [q] fit at time [t] under
      capacity [cap]?
    - what is the earliest [t' >= t] where it fits?

    Used for the combined-resource greedy schedulers (paper §V.D solves on one
    combined resource), for schedule validation, and by the MinEDF-WC
    baseline's slot accounting. *)

type t

val create : capacity:int -> t
(** An empty profile with the given capacity limit (must be positive). *)

val capacity : t -> int

val clear : t -> unit
(** Empty the profile, keeping its arrays for reuse. *)

val copy : t -> t
(** An independent copy: adding to or removing from one leaves the other
    unchanged. *)

val copy_into : src:t -> t -> unit
(** [copy_into ~src dst] makes [dst] equal to [src], reusing [dst]'s
    arrays when they have the room: a list scheduler resets one working
    profile per schedule instead of copying afresh and growing the copy
    again.  @raise Invalid_argument when the capacities differ. *)

val add : t -> start:int -> duration:int -> amount:int -> unit
(** Occupy [amount] units over [start, start+duration).  Zero-duration tasks
    occupy nothing.  No overflow check — see {!fits} / {!val-max_usage}. *)

val remove : t -> start:int -> duration:int -> amount:int -> unit
(** Inverse of {!add}. *)

val usage_at : t -> int -> int
(** Units in use at time [t]. *)

val fits : t -> start:int -> duration:int -> amount:int -> bool
(** True when adding the task would not exceed capacity anywhere in
    [start, start+duration). *)

val earliest_fit : t -> from:int -> duration:int -> amount:int -> int
(** Earliest [t >= from] such that [fits t].  Always terminates: after the
    last profile step the profile is empty. *)

val place : t -> from:int -> duration:int -> amount:int -> int
(** {!earliest_fit} followed by {!add} at the start found, in one pass: the
    fit's boundary indices are reused instead of searched again.  Returns
    the start; equal profiles and starts to the two calls.
    @raise Invalid_argument on a negative duration or amount, or an amount
    above capacity (a zero duration or amount returns [from] and occupies
    nothing). *)

val max_usage : t -> int
(** Peak usage over all time (0 for an empty profile). *)

val steps : t -> (int * int) list
(** The profile as [(time, usage-from-time-on)] steps, ascending, usage 0
    before the first step; for tests and debugging. *)
