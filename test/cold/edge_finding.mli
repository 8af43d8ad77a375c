(** The cold model's capacity constraint: the library's time table
    ({!Cp.Propagators.cumulative_dyn}) on every pool, plus Θ-tree overload
    checking and edge finding on pools that behave as a unary resource.
    The session store posts the time table alone. *)

type term = Cp.Propagators.term = {
  start : Cp.Store.var;
  duration : int;
  demand : int;
}

val disjunctive_applicable :
  tasks:term array -> fixed:(int * int * int) array -> capacity:int -> bool
(** Whether the pool behaves as a unary resource, making {!disjunctive}
    sound on its own: at least one active variable task, and every active
    task (variable or frozen) has [demand = capacity].  (With capacity 1
    this is the usual disjunctive machine.) *)

val disjunctive :
  Cp.Store.t -> tasks:term array -> fixed:(int * int * int) array -> unit
(** Unary-resource filtering via a Θ-Λ tree (Vilím, O(n log n) per run):
    overload checking plus edge finding on both bound sides (the max side
    runs the est-side pass on the reflected time axis).  Demands are
    ignored — post only where {!disjunctive_applicable} holds.  Frozen
    occupations participate as immutable tasks; a bound strengthened on one
    is reported as an overload failure.  Prunes are counted in
    {!prunes}. *)

val prunes : unit -> int
(** Bound tightenings made by every {!disjunctive} propagator so far, over
    all stores; a caller reads it before and after the work it measures. *)

val capacity :
  Cp.Store.t ->
  tasks:term array ->
  fixed:(int * int * int) array ->
  capacity:int ->
  unit
(** Post the capacity constraint of one pool (constraints (5)/(6)): a
    {!Cp.Propagators.cumulative_dyn} pool holding [tasks] and, as
    root-fixed starts, the frozen [(start, duration, demand)] occupations;
    plus {!disjunctive} where {!disjunctive_applicable} holds (there edge
    finding prunes what the time table cannot).
    @raise Cp.Store.Fail when a task, frozen or not, demands more than
    [capacity].
    @raise Invalid_argument when [capacity <= 0] or on a negative duration
    or demand. *)
