module T = Mapreduce.Types
module Dispatch = Sched.Dispatch

type policy = Min_edf_wc | Edf_wc | Fcfs_wc

let policy_to_string = function
  | Min_edf_wc -> "minedf-wc"
  | Edf_wc -> "edf-wc"
  | Fcfs_wc -> "fcfs-wc"

type job_state = {
  job : T.job;
  runnable_from : int;
  mutable pending_maps : T.task list; (* longest first *)
  mutable pending_reduces : T.task list;
  mutable running_maps : int;
  mutable running_reduces : int;
  mutable maps_remaining : int; (* pending + running *)
}

type running = {
  r_job : job_state;
  r_task : T.task;
  r_kind : T.task_kind;
  r_slot : int;
  r_resource : int;
}

type slot = { s_id : int; s_resource : int }

type t = {
  policy : policy;
  cluster : T.resource array;
  mutable jobs : job_state list; (* active, unordered *)
  mutable free_map_slots : slot list;
  mutable free_reduce_slots : slot list;
  running : (int, running) Hashtbl.t; (* task_id -> running info *)
  total_map_slots : int;
  total_reduce_slots : int;
  mutable last_now : int;
  mutable overhead : float;
}

let slots_of cluster select =
  let slots = ref [] and next = ref 0 in
  Array.iter
    (fun (r : T.resource) ->
      for _ = 1 to select r do
        slots := { s_id = !next; s_resource = r.T.res_id } :: !slots;
        incr next
      done)
    cluster;
  List.rev !slots

let create ~cluster ~policy =
  let map_slots = slots_of cluster (fun r -> r.T.map_capacity) in
  let reduce_slots = slots_of cluster (fun r -> r.T.reduce_capacity) in
  {
    policy;
    cluster;
    jobs = [];
    free_map_slots = map_slots;
    free_reduce_slots = reduce_slots;
    running = Hashtbl.create 256;
    total_map_slots = List.length map_slots;
    total_reduce_slots = List.length reduce_slots;
    last_now = 0;
    overhead = 0.;
  }

let by_length_desc a b =
  let c = compare b.T.exec_time a.T.exec_time in
  if c <> 0 then c else compare a.T.task_id b.T.task_id

let submit t ~now job =
  let js =
    {
      job;
      runnable_from = max job.T.earliest_start now;
      pending_maps = List.sort by_length_desc (Array.to_list job.T.map_tasks);
      pending_reduces =
        List.sort by_length_desc (Array.to_list job.T.reduce_tasks);
      running_maps = 0;
      running_reduces = 0;
      maps_remaining = Array.length job.T.map_tasks;
    }
  in
  t.jobs <- js :: t.jobs

let task_completed t ~now:_ ~task_id =
  match Hashtbl.find_opt t.running task_id with
  | None ->
      invalid_arg
        (Printf.sprintf "Slot_scheduler.task_completed: task %d not running"
           task_id)
  | Some r ->
      Hashtbl.remove t.running task_id;
      let slot = { s_id = r.r_slot; s_resource = r.r_resource } in
      (match r.r_kind with
      | T.Map_task ->
          t.free_map_slots <- slot :: t.free_map_slots;
          r.r_job.running_maps <- r.r_job.running_maps - 1;
          r.r_job.maps_remaining <- r.r_job.maps_remaining - 1
      | T.Reduce_task ->
          t.free_reduce_slots <- slot :: t.free_reduce_slots;
          r.r_job.running_reduces <- r.r_job.running_reduces - 1);
      (* retire fully-finished jobs *)
      let done_ js =
        js.pending_maps = [] && js.pending_reduces = [] && js.running_maps = 0
        && js.running_reduces = 0
      in
      if done_ r.r_job then t.jobs <- List.filter (fun j -> j != r.r_job) t.jobs

(* Take a running attempt back: the task re-enters its job's pending list
   (kept sorted longest-first) and the running counters shrink.
   [maps_remaining] counts pending + running, so it is unchanged. *)
let requeue t ~task_id ~free_slot =
  match Hashtbl.find_opt t.running task_id with
  | None ->
      invalid_arg
        (Printf.sprintf "Slot_scheduler.requeue: task %d not running" task_id)
  | Some r ->
      Hashtbl.remove t.running task_id;
      let slot = { s_id = r.r_slot; s_resource = r.r_resource } in
      (match r.r_kind with
      | T.Map_task ->
          if free_slot then t.free_map_slots <- slot :: t.free_map_slots;
          r.r_job.running_maps <- r.r_job.running_maps - 1;
          r.r_job.pending_maps <-
            List.merge by_length_desc [ r.r_task ] r.r_job.pending_maps
      | T.Reduce_task ->
          if free_slot then t.free_reduce_slots <- slot :: t.free_reduce_slots;
          r.r_job.running_reduces <- r.r_job.running_reduces - 1;
          r.r_job.pending_reduces <-
            List.merge by_length_desc [ r.r_task ] r.r_job.pending_reduces)

let task_attempt_failed t ~now:_ ~task_id = requeue t ~task_id ~free_slot:true

let resource_lost t ~now:_ ~resource_id ~lost =
  (* the dead resource's idle slots leave the pool; its occupied slots are
     implicitly retired with the killed attempts (not returned to the free
     list), so [resource_rejoined] can restore the full slot set *)
  t.free_map_slots <-
    List.filter (fun s -> s.s_resource <> resource_id) t.free_map_slots;
  t.free_reduce_slots <-
    List.filter (fun s -> s.s_resource <> resource_id) t.free_reduce_slots;
  List.iter (fun task_id -> requeue t ~task_id ~free_slot:false) lost

let resource_rejoined t ~now:_ ~resource_id =
  (* while down, none of the resource's slots were in circulation (idle ones
     were filtered out, occupied ones died with their attempts), so the full
     per-resource slot set — recomputed under the stable global numbering —
     returns to the pool *)
  let mine slots =
    List.filter (fun s -> s.s_resource = resource_id) slots
  in
  let map_slots = mine (slots_of t.cluster (fun r -> r.T.map_capacity)) in
  let reduce_slots = mine (slots_of t.cluster (fun r -> r.T.reduce_capacity)) in
  t.free_map_slots <- map_slots @ t.free_map_slots;
  t.free_reduce_slots <- reduce_slots @ t.free_reduce_slots

(* Bounds-based phase-time estimate with s slots: (W - longest)/s + longest
   (the ARIA-style upper bound). *)
let phase_time ~work ~longest ~slots =
  if work = 0 then 0
  else if slots <= 0 then max_int
  else ((work - longest + slots - 1) / slots) + longest

let min_allocation ~map_work ~map_longest ~map_tasks ~reduce_work
    ~reduce_longest ~reduce_tasks ~budget ~map_slots_max ~reduce_slots_max =
  if budget <= 0 then None
  else begin
    let sm_cap = min map_slots_max (max map_tasks 0) in
    let sr_cap = min reduce_slots_max (max reduce_tasks 0) in
    let best = ref None in
    let consider sm sr =
      match !best with
      | Some (bm, br) when bm + br < sm + sr || (bm + br = sm + sr && bm <= sm)
        -> ()
      | _ -> best := Some (sm, sr)
    in
    let sm_lo = if map_tasks = 0 then 0 else 1 in
    for sm = sm_lo to max sm_lo sm_cap do
      let mt = phase_time ~work:map_work ~longest:map_longest ~slots:sm in
      let mt = if map_tasks = 0 then 0 else mt in
      if mt <= budget then begin
        if reduce_tasks = 0 then consider sm 0
        else begin
          let remaining = budget - mt in
          (* smallest sr with (W_r - longest)/sr + longest <= remaining *)
          if remaining > reduce_longest || (reduce_work = reduce_longest && remaining >= reduce_longest)
          then begin
            let numer = reduce_work - reduce_longest in
            let sr =
              if numer <= 0 then 1
              else begin
                let denom = remaining - reduce_longest in
                if denom <= 0 then max_int else (numer + denom - 1) / denom
              end
            in
            if sr <= sr_cap then consider sm (max 1 sr)
          end
        end
      end
    done;
    !best
  end

let job_order policy a b =
  let key js =
    match policy with
    | Min_edf_wc | Edf_wc -> js.job.T.deadline
    | Fcfs_wc -> js.job.T.arrival
  in
  let c = compare (key a) (key b) in
  if c <> 0 then c else compare a.job.T.id b.job.T.id

let sum_exec tasks = List.fold_left (fun acc t -> acc + t.T.exec_time) 0 tasks
let longest tasks = List.fold_left (fun acc t -> max acc t.T.exec_time) 0 tasks

let dispatches t ~now =
  let t0 = Obs.Clock.now () in
  t.last_now <- now;
  let out = ref [] in
  let eligible =
    List.filter (fun js -> js.runnable_from <= now) t.jobs
    |> List.sort (job_order t.policy)
  in
  let launch js (task : T.task) =
    let free, set_free =
      match task.T.kind with
      | T.Map_task ->
          (t.free_map_slots, fun l -> t.free_map_slots <- l)
      | T.Reduce_task ->
          (t.free_reduce_slots, fun l -> t.free_reduce_slots <- l)
    in
    match free with
    | [] -> false
    | slot :: rest ->
        set_free rest;
        (match task.T.kind with
        | T.Map_task ->
            js.pending_maps <- List.tl js.pending_maps;
            js.running_maps <- js.running_maps + 1
        | T.Reduce_task ->
            js.pending_reduces <- List.tl js.pending_reduces;
            js.running_reduces <- js.running_reduces + 1);
        Hashtbl.replace t.running task.T.task_id
          {
            r_job = js;
            r_task = task;
            r_kind = task.T.kind;
            r_slot = slot.s_id;
            r_resource = slot.s_resource;
          };
        out :=
          {
            Dispatch.task;
            resource_id = slot.s_resource;
            slot = slot.s_id;
            start = now;
          }
          :: !out;
        true
  in
  (* a job's runnable task list: maps first; reduces only once maps done *)
  let runnable_head js =
    match js.pending_maps with
    | task :: _ -> Some task
    | [] ->
        if js.maps_remaining = 0 then
          match js.pending_reduces with task :: _ -> Some task | [] -> None
        else None
  in
  (* pass 1: minimum guarantees (Min_edf_wc only) *)
  if t.policy = Min_edf_wc then
    List.iter
      (fun js ->
        let budget = js.job.T.deadline - now in
        let demand =
          min_allocation
            ~map_work:(sum_exec js.pending_maps)
            ~map_longest:(longest js.pending_maps)
            ~map_tasks:(List.length js.pending_maps)
            ~reduce_work:(sum_exec js.pending_reduces)
            ~reduce_longest:(longest js.pending_reduces)
            ~reduce_tasks:(List.length js.pending_reduces)
            ~budget ~map_slots_max:t.total_map_slots
            ~reduce_slots_max:t.total_reduce_slots
        in
        match demand with
        | None -> () (* cannot meet the deadline: no guaranteed share *)
        | Some (sm, sr) ->
            let grant target running pick =
              let n = ref (target - running) in
              let continue = ref true in
              while !n > 0 && !continue do
                match pick () with
                | Some task -> if launch js task then decr n else continue := false
                | None -> continue := false
              done
            in
            grant sm js.running_maps (fun () ->
                match js.pending_maps with x :: _ -> Some x | [] -> None);
            if js.maps_remaining = 0 then
              grant sr js.running_reduces (fun () ->
                  match js.pending_reduces with x :: _ -> Some x | [] -> None))
      eligible;
  (* pass 2: work conservation — hand out every remaining usable slot *)
  List.iter
    (fun js ->
      let continue = ref true in
      while !continue do
        match runnable_head js with
        | Some task -> if not (launch js task) then continue := false
        | None -> continue := false
      done)
    eligible;
  t.overhead <- t.overhead +. (Obs.Clock.now () -. t0);
  List.rev !out

let next_wake t =
  List.fold_left
    (fun acc js ->
      if js.runnable_from > t.last_now then
        match acc with
        | Some w when w <= js.runnable_from -> acc
        | _ -> Some js.runnable_from
      else acc)
    None t.jobs

let active_jobs t = List.length t.jobs
let overhead_seconds t = t.overhead
let policy t = t.policy
