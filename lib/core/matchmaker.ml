module T = Mapreduce.Types

(* One kind's unit slots, by global slot index: the resource each belongs
   to, and when each is next free (the end of the latest task committed to
   it; [min_int] when free from the start, [max_int] when its resource is
   down).  Plain int arrays, so the best-fit scan reads one array. *)
type pool = {
  resource : int array;
  free_from : int array;
  mutable last_start : int;  (* assignments come in start order *)
}

type t = { maps : pool; reduces : pool }

let pool_of cluster select =
  let n = Array.fold_left (fun acc r -> acc + select r) 0 cluster in
  let resource = Array.make n 0 and next = ref 0 in
  Array.iter
    (fun (r : T.resource) ->
      for _ = 1 to select r do
        resource.(!next) <- r.T.res_id;
        incr next
      done)
    cluster;
  { resource; free_from = Array.make n min_int; last_start = min_int }

let create ~cluster =
  {
    maps = pool_of cluster (fun r -> r.T.map_capacity);
    reduces = pool_of cluster (fun r -> r.T.reduce_capacity);
  }

let map_slot_count t = Array.length t.maps.resource
let reduce_slot_count t = Array.length t.reduces.resource

let pool_for t = function T.Map_task -> t.maps | T.Reduce_task -> t.reduces

let reset t =
  let free p =
    Array.fill p.free_from 0 (Array.length p.free_from) min_int;
    p.last_start <- min_int
  in
  free t.maps;
  free t.reduces

let disable_resource t ~resource_id =
  let disable p =
    Array.iteri
      (fun slot r -> if r = resource_id then p.free_from.(slot) <- max_int)
      p.resource
  in
  disable t.maps;
  disable t.reduces

let occupy t ~kind ~slot ~until =
  let p = pool_for t kind in
  if slot < 0 || slot >= Array.length p.free_from then
    invalid_arg "Matchmaker.occupy: slot out of range";
  if until > p.free_from.(slot) then p.free_from.(slot) <- until

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
  let p = pool_for t kind in
  assert (start >= p.last_start);
  p.last_start <- start;
  (* Best fit: among slots free by [start], take the one freed latest
     (smallest remaining gap, paper §V.D); the first such on a tie. *)
  let free = p.free_from in
  let best = ref (-1) and best_free = ref min_int in
  for i = 0 to Array.length free - 1 do
    let f = free.(i) in
    if f <= start && (!best < 0 || !best_free < f) then begin
      best := i;
      best_free := f
    end
  done;
  if !best < 0 && task.T.exec_time = 0 then begin
    (* a zero-length task occupies nothing, so the combined schedule may
       start it while every slot is busy: it goes on the first slot of a
       live resource, which it leaves as it was *)
    let live = ref (-1) in
    Array.iteri (fun i f -> if !live < 0 && f < max_int then live := i) free;
    if !live < 0 then
      failwith
        (Printf.sprintf "Matchmaker.assign: no live %s slot for task %d"
           (T.task_kind_to_string kind) task.T.task_id);
    {
      Sched.Dispatch.task;
      resource_id = p.resource.(!live);
      slot = !live;
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
    free.(!best) <- start + task.T.exec_time;
    {
      Sched.Dispatch.task;
      resource_id = p.resource.(!best);
      slot = !best;
      start;
    }
  end

let assign_all ?(on_assign = fun _ _ -> ()) t ~starts ~tasks =
  let n = Array.length tasks in
  if Array.length starts <> n then
    invalid_arg "Matchmaker.assign_all: one start per task expected";
  (* (start, task id) is unique per task: the sorted order is the one a
     stable sort on that pair gives *)
  let order = Array.init n Fun.id in
  Sched.Index_sort.sort order ~lo:0 ~hi:n ~key:starts
    ~tie:(Array.map (fun (task : T.task) -> task.T.task_id) tasks);
  let dispatches = ref [] in
  for q = 0 to n - 1 do
    let k = order.(q) in
    let task = tasks.(k) in
    let d = assign t ~kind:task.T.kind ~task ~start:starts.(k) in
    on_assign k d;
    dispatches := d :: !dispatches
  done;
  List.rev !dispatches

let spread_evenly ~slots ~over =
  if over <= 0 then invalid_arg "Matchmaker.spread_evenly: over must be > 0";
  if slots < 0 then invalid_arg "Matchmaker.spread_evenly: negative slots";
  let base = slots / over and extra = slots mod over in
  (* the paper gives the larger share to the tail of the list: 100 over 30 ->
     twenty 3s then ten 4s *)
  Array.init over (fun i -> if i < over - extra then base else base + 1)
