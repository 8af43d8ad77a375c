(** Sorting index arrays by two int keys, without a comparison closure.

    Every per-pass order of the scheduling pipeline is of this shape: job
    indices by (deadline, job id), a job's task indices longest-first with
    ties by task id, a plan's task indices by (start, task id).  The keys
    are read from plain [int array]s, so the comparison is two loads and an
    integer compare.  The order is the unique ascending one whenever the
    (key, tie) pairs of the sorted entries are distinct, which every caller
    guarantees through an id tie-break; with equal pairs the sort is still
    stable. *)

val sort :
  int array -> lo:int -> hi:int -> key:int array -> tie:int array -> unit
(** [sort a ~lo ~hi ~key ~tie] sorts [a.(lo) .. a.(hi - 1)] ascending by
    [(key.(x), tie.(x))].  Insertion sort on short ranges (the common case:
    a job's tasks, a pass's jobs), a merge sort beyond.
    @raise Invalid_argument when an entry indexes outside [key] or [tie],
    or the range outside [a]. *)
