type job_class = { class_id : int; maps : int; reduces : int; count : int }

let job_classes =
  [|
    { class_id = 1; maps = 1; reduces = 0; count = 380 };
    { class_id = 2; maps = 2; reduces = 0; count = 160 };
    { class_id = 3; maps = 10; reduces = 3; count = 140 };
    { class_id = 4; maps = 50; reduces = 0; count = 80 };
    { class_id = 5; maps = 100; reduces = 0; count = 60 };
    { class_id = 6; maps = 200; reduces = 50; count = 60 };
    { class_id = 7; maps = 400; reduces = 0; count = 40 };
    { class_id = 8; maps = 800; reduces = 180; count = 40 };
    { class_id = 9; maps = 2400; reduces = 360; count = 20 };
    { class_id = 10; maps = 4800; reduces = 0; count = 20 };
  |]

type params = {
  n_jobs : int;
  lambda : float;
  d_m : float;
  map_mu : float;
  map_sigma2 : float;
  reduce_mu : float;
  reduce_sigma2 : float;
}

let default =
  {
    n_jobs = 1000;
    lambda = 0.0005;
    d_m = 2.0;
    map_mu = 9.9511;
    map_sigma2 = 1.6764;
    reduce_mu = 12.375;
    reduce_sigma2 = 1.6262;
  }

let cluster () = Types.uniform_cluster ~m:64 ~map_capacity:1 ~reduce_capacity:1

let mix_mean f =
  let weighted =
    Array.fold_left (fun acc c -> acc +. (float_of_int (f c * c.count))) 0.
      job_classes
  in
  let total = Array.fold_left (fun acc c -> acc + c.count) 0 job_classes in
  weighted /. float_of_int total

let expected_maps_per_job () = mix_mean (fun c -> c.maps)
let expected_reduces_per_job () = mix_mean (fun c -> c.reduces)

let ms_per_s = 1000.

let validate p =
  if p.n_jobs <= 0 then invalid_arg "Facebook.generate: n_jobs must be > 0";
  if p.lambda <= 0. then invalid_arg "Facebook.generate: lambda must be > 0";
  if p.d_m < 1. then invalid_arg "Facebook.generate: d_M must be >= 1"

let generate p ~cluster ~seed =
  validate p;
  let root = Simrand.Rng.create seed in
  let arrivals_rng = Simrand.Rng.split root in
  let class_rng = Simrand.Rng.split root in
  let exec_rng = Simrand.Rng.split root in
  let sla_rng = Simrand.Rng.split root in
  let class_sampler =
    Simrand.Dist.categorical
      ~weights:(Array.map (fun c -> float_of_int c.count) job_classes)
  in
  (* Lognormal samples are already in ms; round up so no task is 0-length. *)
  let sample_ms ~mu ~sigma2 =
    max 1 (int_of_float (ceil (Simrand.Dist.lognormal exec_rng ~mu ~sigma2)))
  in
  let next_task_id = ref 0 in
  let fresh_task job_id kind exec_time =
    let id = !next_task_id in
    incr next_task_id;
    { Types.task_id = id; job_id; kind; exec_time; capacity_req = 1 }
  in
  let clock = ref 0. in
  let make_job id =
    let gap = Simrand.Dist.exponential arrivals_rng ~rate:p.lambda *. ms_per_s in
    clock := !clock +. gap;
    let arrival = int_of_float !clock in
    let cls = job_classes.(Simrand.Dist.categorical_draw class_sampler class_rng) in
    let map_tasks =
      Array.init cls.maps (fun _ ->
          fresh_task id Types.Map_task
            (sample_ms ~mu:p.map_mu ~sigma2:p.map_sigma2))
    in
    let reduce_tasks =
      Array.init cls.reduces (fun _ ->
          fresh_task id Types.Reduce_task
            (sample_ms ~mu:p.reduce_mu ~sigma2:p.reduce_sigma2))
    in
    let skeleton =
      {
        Types.id;
        arrival;
        earliest_start = arrival;
        deadline = max_int;
        map_tasks;
        reduce_tasks;
      }
    in
    let te = Types.minimum_execution_time skeleton cluster in
    let multiplier = Simrand.Dist.uniform sla_rng ~lo:1. ~hi:p.d_m in
    let deadline = arrival + int_of_float (float_of_int te *. multiplier) in
    { skeleton with deadline }
  in
  List.init p.n_jobs make_job
