(** Table-3 synthetic workload generator (paper §VI, Table 3).

    Per job [j]:
    - number of map tasks    k_mp ~ DU[1, 100]
    - number of reduce tasks k_rd ~ DU[1, 100]
    - map task time          me   ~ DU[1, e_max] seconds
    - reduce task time       re   = (reduce_factor × Σme)/k_rd + DU[1, 10] s
    - earliest start         s_j  = v_j, or v_j + DU[1, s_max] w.p. [p]
    - deadline               d_j  = s_j + TE × U[1, d_M]
    - arrivals: Poisson process with rate λ jobs/s

    TE is the job's minimum execution time on the target cluster
    ({!Types.minimum_execution_time}).  Defaults are the boldface values of
    Table 3 as reconstructed in DESIGN.md §4. *)

type params = {
  n_jobs : int;  (** length of the arrival stream *)
  map_tasks_max : int;  (** upper bound of DU[1,·] for k_mp (paper: 100) *)
  reduce_tasks_max : int;  (** upper bound for k_rd (paper: 100) *)
  e_max : int;  (** map-task time upper bound, seconds ∈ {10,50,100} *)
  reduce_factor : float;
      (** multiplier on Σme in the reduce-time formula (paper text: 3) *)
  p : float;  (** probability that s_j > v_j ∈ {0.1,0.5,0.9} *)
  s_max : int;  (** advance-reservation bound, seconds ∈ {10k,50k,250k} *)
  d_m : float;  (** deadline multiplier upper bound ∈ {2,5,10} *)
  lambda : float;  (** arrival rate, jobs/second *)
}

val default : params
(** n_jobs=200, e_max=50, reduce_factor=3, p=0.5, s_max=50000, d_m=5,
    lambda=0.01 — the factor-at-a-time default point. *)

val generate : params -> cluster:Types.resource array -> seed:int -> Types.job list
(** Jobs sorted by (strictly increasing ids and) non-decreasing arrival time.
    Task ids are globally unique across the returned workload.  The [cluster]
    is needed to compute TE for the deadline formula.
    @raise Invalid_argument as {!validate}. *)

val validate : params -> unit
(** The parameter checks {!generate} starts with, for callers that want to
    reject bad input before doing any work.
    @raise Invalid_argument naming the first out-of-range field. *)

val pp_params : Format.formatter -> params -> unit
