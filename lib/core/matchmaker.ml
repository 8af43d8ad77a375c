module T = Mapreduce.Types

type slot_state = {
  slot_id : int;
  resource_id : int;
  mutable available_from : int;
}

type t = {
  map_slots : slot_state array;
  reduce_slots : slot_state array;
  mutable last_map_start : int;
  mutable last_reduce_start : int;
}

let slots_of cluster select =
  let slots = ref [] in
  let next = ref 0 in
  Array.iter
    (fun (r : T.resource) ->
      for _ = 1 to select r do
        slots :=
          { slot_id = !next; resource_id = r.T.res_id; available_from = min_int }
          :: !slots;
        incr next
      done)
    cluster;
  Array.of_list (List.rev !slots)

let create ~cluster =
  {
    map_slots = slots_of cluster (fun r -> r.T.map_capacity);
    reduce_slots = slots_of cluster (fun r -> r.T.reduce_capacity);
    last_map_start = min_int;
    last_reduce_start = min_int;
  }

let map_slot_count t = Array.length t.map_slots
let reduce_slot_count t = Array.length t.reduce_slots

let slots_for t = function
  | T.Map_task -> t.map_slots
  | T.Reduce_task -> t.reduce_slots

let disable_resource t ~resource_id =
  let disable slots =
    Array.iter
      (fun s -> if s.resource_id = resource_id then s.available_from <- max_int)
      slots
  in
  disable t.map_slots;
  disable t.reduce_slots

let occupy t ~kind ~slot ~until =
  let slots = slots_for t kind in
  if slot < 0 || slot >= Array.length slots then
    invalid_arg "Matchmaker.occupy: slot out of range";
  let s = slots.(slot) in
  if until > s.available_from then s.available_from <- until

let unit_demand_only =
  "Matchmaker.assign: only unit capacity requirements are supported (the \
   paper's q_t = 1); tasks with q_t > 1 cannot be matched to unit slots"

let check_unit_demands jobs =
  let unit (task : T.task) = task.T.capacity_req = 1 in
  if
    List.for_all
      (fun (j : T.job) ->
        Array.for_all unit j.T.map_tasks && Array.for_all unit j.T.reduce_tasks)
      jobs
  then Ok ()
  else Error unit_demand_only

let assign t ~kind ~task ~start =
  if task.T.capacity_req <> 1 then invalid_arg unit_demand_only;
  let slots = slots_for t kind in
  (match kind with
  | T.Map_task ->
      assert (start >= t.last_map_start);
      t.last_map_start <- start
  | T.Reduce_task ->
      assert (start >= t.last_reduce_start);
      t.last_reduce_start <- start);
  (* Best fit: among slots free by [start], take the one freed latest
     (smallest remaining gap, paper §V.D). *)
  let best = ref (-1) in
  for i = 0 to Array.length slots - 1 do
    let s = slots.(i) in
    if
      s.available_from <= start
      && (!best < 0 || slots.(!best).available_from < s.available_from)
    then best := i
  done;
  if !best < 0 && task.T.exec_time = 0 then begin
    (* a zero-length task occupies nothing, so the combined schedule may
       start it while every slot is busy: it goes on the first slot of a
       live resource, which it leaves as it was *)
    let live = ref (-1) in
    Array.iteri
      (fun i s -> if !live < 0 && s.available_from < max_int then live := i)
      slots;
    if !live < 0 then
      failwith
        (Printf.sprintf "Matchmaker.assign: no live %s slot for task %d"
           (T.task_kind_to_string kind) task.T.task_id);
    let s = slots.(!live) in
    {
      Sched.Dispatch.task;
      resource_id = s.resource_id;
      slot = s.slot_id;
      start;
    }
  end
  else if !best < 0 then
    failwith
      (Printf.sprintf
         "Matchmaker.assign: no free %s slot at %d for task %d (solver \
          capacity bug)"
         (T.task_kind_to_string kind) start task.T.task_id)
  else begin
    let s = slots.(!best) in
    s.available_from <- start + task.T.exec_time;
    { Sched.Dispatch.task; resource_id = s.resource_id; slot = s.slot_id; start }
  end

let assign_all ?(on_assign = fun _ _ -> ()) t ~starts ~tasks =
  if Array.length starts <> Array.length tasks then
    invalid_arg "Matchmaker.assign_all: one start per task expected";
  let order = Array.init (Array.length tasks) Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Int.compare starts.(a) starts.(b) in
      if c <> 0 then c else Int.compare tasks.(a).T.task_id tasks.(b).T.task_id)
    order;
  let dispatches = ref [] in
  Array.iter
    (fun k ->
      let task = tasks.(k) in
      let d = assign t ~kind:task.T.kind ~task ~start:starts.(k) in
      on_assign k d;
      dispatches := d :: !dispatches)
    order;
  List.rev !dispatches

let spread_evenly ~slots ~over =
  if over <= 0 then invalid_arg "Matchmaker.spread_evenly: over must be > 0";
  if slots < 0 then invalid_arg "Matchmaker.spread_evenly: negative slots";
  let base = slots / over and extra = slots mod over in
  (* the paper gives the larger share to the tail of the list: 100 over 30 ->
     twenty 3s then ten 4s *)
  Array.init over (fun i -> if i < over - extra then base else base + 1)
