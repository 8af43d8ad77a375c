(** The library's search ({!Cp.Search.run_problem}) over a {!Model}. *)

val problem_of_model : Model.t -> Cp.Search.problem
(** The model's start and lateness variables, its cut and its extraction;
    no list-schedule leaf ([propose = None]). *)

val run : Model.t -> Cp.Search.limits -> Cp.Search.outcome
(** {!Cp.Search.run_problem} on {!problem_of_model}.  [model.bound] must
    hold the strict bound to beat. *)
