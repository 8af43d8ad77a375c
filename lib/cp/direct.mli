(** The {e direct} CP formulation of Table 1: explicit x_tr matchmaking
    variables (here: one resource-choice variable per task) and one
    cumulative constraint {e per resource} — the formulation the paper
    describes first, before §V.D replaces it with the combined-resource
    solve + matchmaking decomposition because "it takes the system with one
    resource about 15 seconds ... on the system with 50 resources it took
    approximately 60 seconds".

    This module exists to reproduce that comparison (`ablation-decomp`):
    same objective, same semantics, but branching must also decide the
    choice variables and per-resource propagation is much weaker.  Closed
    batches only (no frozen tasks). *)

type assignment = {
  solution : Sched.Solution.t;  (** start times (task_id → start) *)
  resource_of : (int, int) Hashtbl.t;  (** task_id → resource index *)
}

type stats = {
  proved_optimal : bool;
  nodes : int;
  failures : int;
  elapsed : float;
}

val solve :
  ?limits:Search.limits ->
  cluster:Mapreduce.Types.resource array ->
  Sched.Instance.t ->
  (assignment option * stats)
(** Branch-and-bound on the direct model.  The objective bound starts at
    (greedy late count + 1), so the search must find its own full
    task-to-resource assignment at least as good as the greedy combined
    schedule — i.e. the direct formulation performs matchmaking and
    scheduling together, which is exactly what makes it slow (§V.D).
    Returns [None] if no solution was found within the limits.
    The instance's combined capacities must equal the cluster totals.
    @raise Invalid_argument on frozen tasks or capacity mismatch. *)
