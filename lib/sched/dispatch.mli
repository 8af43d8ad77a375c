(** A matchmade scheduling decision: run [task] on resource [resource_id],
    occupying unit slot [slot] (a global slot index, see
    [Core.Matchmaker.slots_of_cluster]), starting at absolute time [start].
    This is the common currency between resource managers and the
    open-system simulator. *)

type t = {
  task : Mapreduce.Types.task;
  resource_id : int;
  slot : int;
  start : int;
}

val finish : t -> int
(** [start + exec_time]. *)

val pp : Format.formatter -> t -> unit
val compare_by_start : t -> t -> int

val equal : t -> t -> bool
(** Structural equality, field by field on ints: the same task record
    (every field), resource, slot and start. *)
