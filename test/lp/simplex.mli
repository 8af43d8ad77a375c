(** Dense two-phase primal simplex.

    Solves   minimize    c·x
             subject to  a_i·x (≤ | = | ≥) b_i   for each row i
                         x ≥ 0

    Bland's rule is used throughout, so the algorithm cannot cycle.  This is
    the LP kernel under the MILP optimum oracle ({!Mip}, {!Milp_model}) that
    the tests check the CP solver against (it also reproduced the paper's
    CP-vs-LP motivation, §I, [12], in the table EXPERIMENTS.md keeps frozen);
    it is exact rational-free floating-point simplex with an epsilon
    tolerance, adequate for the small 0/1 models it serves. *)

type relation = Le | Eq | Ge

type constraint_row = {
  coeffs : float array;  (** length = number of variables *)
  relation : relation;
  rhs : float;
}

type problem = {
  objective : float array;  (** minimized *)
  rows : constraint_row list;
}

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** @raise Invalid_argument on ragged coefficient rows. *)

val feasible : problem -> float array -> bool
(** [feasible p x] checks all constraints of [p] at the point [x] (within
    1e-6) — the test oracle. *)
