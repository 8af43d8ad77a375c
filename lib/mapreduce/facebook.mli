(** Table-4 synthetic Facebook workload (paper §VI.B.1, after Verma et al.).

    1000 jobs drawn from ten job classes (the October-2009 Facebook trace mix),
    with task execution times in milliseconds following the lognormal fits the
    paper reports: maps ~ LN(9.9511, 1.6764), reduces ~ LN(12.375, 1.6262)
    (μ, σ² of the underlying normal).  Earliest start = arrival (p = 0) and
    deadline multiplier d_M = 2, matching the Fig. 2/3 comparison setup. *)

type job_class = {
  class_id : int;  (** 1..10 *)
  maps : int;  (** k_mp for this class *)
  reduces : int;  (** k_rd (0 = map-only job) *)
  count : int;  (** jobs of this class per 1000 *)
}

val job_classes : job_class array
(** The Table-4 mix; counts sum to 1000. *)

type params = {
  n_jobs : int;
  lambda : float;  (** jobs/second; paper sweeps 0.0001 .. 0.0005 *)
  d_m : float;  (** deadline multiplier bound (paper: 2) *)
  map_mu : float;
  map_sigma2 : float;
  reduce_mu : float;
  reduce_sigma2 : float;
}

val default : params
(** 1000 jobs, λ = 0.0005, d_M = 2, lognormal parameters from the paper. *)

val cluster : unit -> Types.resource array
(** The Fig. 2/3 system: 64 resources, one map slot and one reduce slot each. *)

val generate : params -> cluster:Types.resource array -> seed:int -> Types.job list
(** Stream of jobs with Poisson arrivals; class of each job drawn from the
    Table-4 empirical mix.  @raise Invalid_argument as {!validate}. *)

val validate : params -> unit
(** The parameter checks {!generate} starts with, for callers that want to
    reject bad input before doing any work.
    @raise Invalid_argument naming the first out-of-range field. *)

val expected_maps_per_job : unit -> float
(** Mean k_mp over the mix — used by tests. *)

val expected_reduces_per_job : unit -> float
