type task_kind = Map_task | Reduce_task

type task = {
  task_id : int;
  job_id : int;
  kind : task_kind;
  exec_time : int;
  capacity_req : int;
}

type job = {
  id : int;
  arrival : int;
  earliest_start : int;
  deadline : int;
  map_tasks : task array;
  reduce_tasks : task array;
}

type resource = { res_id : int; map_capacity : int; reduce_capacity : int }

let task_kind_to_string = function
  | Map_task -> "map"
  | Reduce_task -> "reduce"

let pp_task fmt t =
  Format.fprintf fmt "task<%d job=%d %s e=%dms q=%d>" t.task_id t.job_id
    (task_kind_to_string t.kind)
    t.exec_time t.capacity_req

let pp_job fmt j =
  Format.fprintf fmt "job<%d v=%d s=%d d=%d |mp|=%d |rd|=%d>" j.id j.arrival
    j.earliest_start j.deadline
    (Array.length j.map_tasks)
    (Array.length j.reduce_tasks)

let pp_resource fmt r =
  Format.fprintf fmt "res<%d mp=%d rd=%d>" r.res_id r.map_capacity
    r.reduce_capacity

let job_tasks j = Array.to_list j.map_tasks @ Array.to_list j.reduce_tasks
let task_count j = Array.length j.map_tasks + Array.length j.reduce_tasks

let sum_exec tasks = Array.fold_left (fun acc t -> acc + t.exec_time) 0 tasks

let total_exec_time j = sum_exec j.map_tasks + sum_exec j.reduce_tasks
let total_map_time j = sum_exec j.map_tasks
let laxity j = j.deadline - j.earliest_start - total_exec_time j

let validate_job j =
  let ( let* ) r f = Result.bind r f in
  let check cond msg = if cond then Ok () else Error msg in
  let check_task kind t =
    let* () = check (t.job_id = j.id) "task job_id mismatch" in
    let* () = check (t.kind = kind) "task kind in wrong array" in
    let* () = check (t.exec_time >= 0) "negative exec_time" in
    check (t.capacity_req > 0) "capacity_req must be positive"
  in
  let check_all kind tasks =
    Array.fold_left
      (fun acc t -> Result.bind acc (fun () -> check_task kind t))
      (Ok ()) tasks
  in
  let* () = check (j.earliest_start >= j.arrival) "s_j before arrival" in
  let* () = check (j.deadline >= j.earliest_start) "deadline before s_j" in
  let* () = check (task_count j > 0) "job has no tasks" in
  let* () = check_all Map_task j.map_tasks in
  check_all Reduce_task j.reduce_tasks

let uniform_cluster ~m ~map_capacity ~reduce_capacity =
  if m <= 0 then invalid_arg "uniform_cluster: m must be positive";
  if map_capacity <= 0 then
    invalid_arg "uniform_cluster: map_capacity must be positive";
  if reduce_capacity <= 0 then
    invalid_arg "uniform_cluster: reduce_capacity must be positive";
  Array.init m (fun i -> { res_id = i; map_capacity; reduce_capacity })

let total_map_slots rs =
  Array.fold_left (fun acc r -> acc + r.map_capacity) 0 rs

let total_reduce_slots rs =
  Array.fold_left (fun acc r -> acc + r.reduce_capacity) 0 rs

(* LPT (longest processing time first) list scheduling of [durations] on
   [slots] identical machines; returns the makespan.  Exact for one wave,
   a 4/3-approximation otherwise — adequate for the TE deadline knob. *)
let lpt_makespan durations slots =
  if Array.length durations = 0 then 0
  else begin
    let slots = max 1 slots in
    let sorted = Array.copy durations in
    Array.sort (fun a b -> compare b a) sorted;
    let load = Array.make slots 0 in
    Array.iter
      (fun d ->
        (* assign to the least-loaded machine *)
        let best = ref 0 in
        for i = 1 to slots - 1 do
          if load.(i) < load.(!best) then best := i
        done;
        load.(!best) <- load.(!best) + d)
      sorted;
    Array.fold_left max 0 load
  end

let minimum_execution_time j resources =
  let map_durations = Array.map (fun t -> t.exec_time) j.map_tasks in
  let reduce_durations = Array.map (fun t -> t.exec_time) j.reduce_tasks in
  lpt_makespan map_durations (total_map_slots resources)
  + lpt_makespan reduce_durations (total_reduce_slots resources)
