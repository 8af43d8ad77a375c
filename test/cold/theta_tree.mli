(** Θ-Λ tree for unary-resource reasoning (Vilím).

    Tasks sit at leaves (callers place them in est order so that subtree
    [ect] values are meaningful); internal nodes maintain the processing-time
    sum and earliest completion time of the white (Θ) set, plus the best
    extension by at most one gray (Λ) task.  Leaf updates and root queries
    are O(log n), and the structure reuses its arrays across {!prepare}
    calls, so steady-state use allocates nothing.  Used by
    {!Edge_finding.disjunctive} for overload checking and edge finding. *)

type t

val neg_inf : int
(** The "empty set" completion time: far below any schedule time, yet safe
    to add processing-time sums to without overflow. *)

val create : unit -> t

val prepare : t -> int -> unit
(** [prepare t n] readies [n] leaves, all empty (growing the arrays only
    when [n] exceeds every earlier size). *)

val add : t -> int -> est:int -> p:int -> unit
(** [add t k ~est ~p] places a task with release date [est] and processing
    time [p] at leaf [k], in the Θ set. *)

val gray : t -> int -> unit
(** Move leaf [k] from Θ to Λ (the task keeps the [est]/[p] it was added
    with). *)

val remove : t -> int -> unit
(** Empty leaf [k] (removing it from Θ or Λ). *)

val ect : t -> int
(** Earliest completion time of the Θ set ({!neg_inf} when empty). *)

val ect_bar : t -> int
(** Earliest completion time of Θ extended by the best single Λ task. *)

val responsible : t -> int
(** The leaf of the Λ task realising {!ect_bar}, or [-1] when {!ect_bar} is
    achieved by Θ alone. *)
