(** Branch-and-bound mixed-integer programming over the {!Simplex} kernel.

    Minimizes the LP objective subject to integrality of the designated
    variables; branching adds bound rows (x ≤ ⌊v⌋ / x ≥ ⌈v⌉) and re-solves
    the relaxation from scratch (no warm starts — the point of this module
    is an optimum oracle for small instances that shares no code with
    [lib/cp], not a competitive MILP code). *)

type limits = {
  max_nodes : int;  (** 0 = unlimited *)
  wall_deadline : float option;
      (** absolute deadline on the monotonic clock ({!Obs.Clock.now}), not
          [Unix.gettimeofday] *)
}

val no_limits : limits

type outcome = {
  best : (float * float array) option;
      (** (objective, solution) of the best integral point found *)
  proved_optimal : bool;  (** search space exhausted within limits *)
  nodes : int;
}

val solve :
  ?limits:limits -> ?integrality_eps:float -> Simplex.problem -> integer:int list -> outcome
(** [solve p ~integer] minimizes [p] with the listed variables integral.
    Branches on the most fractional integer variable. *)
