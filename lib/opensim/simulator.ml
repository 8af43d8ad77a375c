module T = Mapreduce.Types
module Dispatch = Sched.Dispatch
module Engine = Desim.Engine

type job_outcome = {
  job : T.job;
  completion : int;
  late : bool;
  turnaround_ms : int;
}

type results = {
  manager : string;
  outcomes : job_outcome list;
  jobs_total : int;
  n_late : int;
  p_late : float;
  avg_turnaround_s : float;
  avg_turnaround_from_arrival_s : float;
  overhead_per_job_s : float;
  total_overhead_s : float;
  solves : int;
  max_invocation_s : float;
  makespan_ms : int;
  map_busy_ms : int;  (* Σ slot-occupancy over map attempts, incl. lost work *)
  reduce_busy_ms : int;
  map_utilization : float option;
  reduce_utilization : float option;
  events_executed : int;
  metrics : Obs.Metrics.snapshot option;
  crashes : int;
  rejoins : int;
  task_failures : int;
  stragglers : int;
  lost_work_ms : int;
}

(* Every job is known when [run] starts, so the run numbers its jobs (in
   list order) and their tasks (each job's maps, then its reduces) once,
   and keeps its state in arrays over those indices.  Task ids from outside
   (a plan's dispatches, the chaos plan) map to task indices through
   [index_of]. *)
type state = {
  driver : Driver.t;
  validate : bool;
  journal : Obs.Journal.t option;
  jobs : T.job array;
  job_of : int array; (* task index -> job index *)
  id_base : int; (* smallest task id *)
  by_id : int array;
      (* task id - id_base -> task index (-1: none); [||] when the ids are
         too sparse for a direct table, and [by_sparse_id] maps them *)
  by_sparse_id : (int, int) Hashtbl.t;
  (* per job *)
  tasks_done : int array;
  maps_done : int array;
  first_start : int array; (* first task start time, [min_int] before it *)
  (* per task.  A started attempt's dispatch is the one executed (a
     straggler's inflated execution time replaces the nominal one); it
     stays after the attempt completes and goes when it fails or is
     killed.  Its handle is the pending completion or failure event, so a
     crash can cancel it. *)
  planned_d : Dispatch.t array; (* the unstarted task's start event *)
  planned_h : Engine.handle array;
  started_d : Dispatch.t array;
  started_h : Engine.handle array;
  completed : Bytes.t;
  attempts : int array; (* attempts started so far *)
  fail_at : (int * int) list array;
      (* chaos: (attempt, frac_1000) failures; [||] without any *)
  straggle_at : (int * int) list array; (* chaos: (attempt, factor_1000) *)
  down : Bytes.t; (* resource id -> crashed now; sized by the crash plan *)
  (* the planned tasks as a set: [planned_set.(0 .. n_planned - 1)], a
     task's place in it at [planned_pos] *)
  planned_set : int array;
  planned_pos : int array;
  mutable n_planned : int;
  (* reconcile's scratch: a plan's task indices and dispatches by position
     (duplicates of a task marked -1), each task's first position, and the
     pass's stamp: [seen.(i)] is [stamp] while task i's new dispatch is to
     be scheduled, [stamp + 1] once it is kept or in flight *)
  mutable plan_idx : int array;
  mutable plan_d : Dispatch.t array;
  mutable cand : int array;
  seen : int array;
  first_pos : int array;
  mutable stamp : int;
  (* slot occupancy, read only by ~validate: [2 * slot + kind] ->
     occupant task id and busy-until time *)
  mutable busy_task : int array;
  mutable busy_until : int array;
  mutable wake_at : int; (* [min_int]: no wake-up pending *)
  mutable wake_h : Engine.handle;
  mutable outcomes : job_outcome list;
  mutable map_busy_ms : int;
  mutable reduce_busy_ms : int;
  mutable crashes : int;
  mutable rejoins : int;
  mutable task_failures : int;
  mutable stragglers : int;
  mutable lost_work_ms : int;
  mutable last_fault_t : int;
}

let fail fmt = Format.kasprintf failwith fmt

(* the absent dispatch of the per-task tables, told apart by [==] *)
let no_dispatch =
  {
    Dispatch.task =
      {
        T.task_id = -1;
        job_id = -1;
        kind = T.Map_task;
        exec_time = 0;
        capacity_req = 0;
      };
    resource_id = -1;
    slot = -1;
    start = min_int;
  }

let index_of st id =
  if Array.length st.by_id > 0 then begin
    let k = id - st.id_base in
    if k >= 0 && k < Array.length st.by_id then st.by_id.(k) else -1
  end
  else Option.value (Hashtbl.find_opt st.by_sparse_id id) ~default:(-1)

let is_started st i = st.started_d.(i) != no_dispatch
let is_completed st i = Bytes.get st.completed i <> '\000'

let chaos_lookup table i attempt =
  if Array.length table = 0 then None
  else match table.(i) with [] -> None | l -> List.assoc_opt attempt l

let record_busy st (task : T.task) ms =
  match task.T.kind with
  | T.Map_task -> st.map_busy_ms <- st.map_busy_ms + ms
  | T.Reduce_task -> st.reduce_busy_ms <- st.reduce_busy_ms + ms

let busy_key (d : Dispatch.t) =
  (2 * d.Dispatch.slot)
  + match d.Dispatch.task.T.kind with T.Map_task -> 0 | T.Reduce_task -> 1

(* Validation only: task [task_id] holds the dispatch's slot until
   [until]. *)
let set_busy st (d : Dispatch.t) ~task_id ~until =
  if st.validate then begin
    let key = busy_key d in
    let len = Array.length st.busy_until in
    if key >= len then begin
      let len' = max (key + 1) (2 * len) in
      let grow a fill =
        let a' = Array.make len' fill in
        Array.blit a 0 a' 0 len;
        a'
      in
      st.busy_task <- grow st.busy_task (-1);
      st.busy_until <- grow st.busy_until min_int
    end;
    st.busy_task.(key) <- task_id;
    st.busy_until.(key) <- until
  end

let set_planned st i d h =
  if st.planned_d.(i) == no_dispatch then begin
    st.planned_pos.(i) <- st.n_planned;
    st.planned_set.(st.n_planned) <- i;
    st.n_planned <- st.n_planned + 1
  end;
  st.planned_d.(i) <- d;
  st.planned_h.(i) <- h

let remove_planned st i =
  let p = st.planned_pos.(i) and last = st.n_planned - 1 in
  let moved = st.planned_set.(last) in
  st.planned_set.(p) <- moved;
  st.planned_pos.(moved) <- p;
  st.n_planned <- last;
  st.planned_d.(i) <- no_dispatch;
  st.planned_h.(i) <- Engine.none

(* Terminal journal lines for one completed job: "job-done" with the
   lateness split into queue wait (first task start − s_j), execution
   (first start → completion) and — under the wall key, because it is
   measured in wall-clock seconds — the solver/matchmaking overhead the
   manager attributed to the job; then the job's final SLA verdict. *)
let journal_job_done st jdx (outcome : job_outcome) =
  match st.journal with
  | None -> ()
  | Some jr ->
      let j = outcome.job in
      let first_start =
        if st.first_start.(jdx) = min_int then outcome.completion
        else st.first_start.(jdx)
      in
      Obs.Journal.event jr ~t_ms:outcome.completion "job-done"
        ~wall:
          [
            ( "solver_overhead_s",
              Obs.Json.Float (st.driver.Driver.job_overhead_seconds j.T.id) );
          ]
        [
          ("job", Obs.Json.Int j.T.id);
          ("arrival", Obs.Json.Int j.T.arrival);
          ("est", Obs.Json.Int j.T.earliest_start);
          ("deadline", Obs.Json.Int j.T.deadline);
          ("completion", Obs.Json.Int outcome.completion);
          ("late", Obs.Json.Bool outcome.late);
          ("first_start", Obs.Json.Int first_start);
          ("queue_wait_ms", Obs.Json.Int (first_start - j.T.earliest_start));
          ("exec_ms", Obs.Json.Int (outcome.completion - first_start));
          ( "lateness_ms",
            Obs.Json.Int (max 0 (outcome.completion - j.T.deadline)) );
        ];
      Obs.Journal.event jr ~t_ms:outcome.completion "sla"
        [
          ("job", Obs.Json.Int j.T.id);
          ("to", Obs.Json.String (if outcome.late then "late" else "met"));
          ("final", Obs.Json.Bool true);
        ]

let check_start st i (d : Dispatch.t) now =
  let task = d.Dispatch.task in
  if is_started st i then fail "task %d started twice" task.T.task_id;
  let rid = d.Dispatch.resource_id in
  if rid >= 0 && rid < Bytes.length st.down && Bytes.get st.down rid <> '\000'
  then
    fail "task %d dispatched to crashed resource %d" task.T.task_id rid;
  let jdx = st.job_of.(i) in
  let j = st.jobs.(jdx) in
  if now < j.T.earliest_start then
    fail "task %d of job %d started at %d before s_j=%d" task.T.task_id
      task.T.job_id now j.T.earliest_start;
  (match task.T.kind with
  | T.Reduce_task ->
      let map_count = Array.length j.T.map_tasks in
      if st.maps_done.(jdx) < map_count then
        fail "reduce task %d of job %d started with %d/%d maps done"
          task.T.task_id task.T.job_id st.maps_done.(jdx) map_count
  | T.Map_task -> ());
  (* a zero-length task occupies no slot time, so it neither conflicts with
     the slot's occupant nor replaces it *)
  if task.T.exec_time > 0 then begin
    if d.Dispatch.slot < 0 then
      fail "task %d dispatched to slot %d" task.T.task_id d.Dispatch.slot;
    let key = busy_key d in
    if key < Array.length st.busy_until && st.busy_until.(key) > now then
      fail "%s slot %d double-booked at %d: task %d overlaps task %d"
        (T.task_kind_to_string task.T.kind)
        d.Dispatch.slot now task.T.task_id st.busy_task.(key);
    set_busy st d ~task_id:task.T.task_id ~until:(now + task.T.exec_time)
  end

let rec on_task_complete st i (d : Dispatch.t) sim =
  let now = Engine.now sim in
  let task = d.Dispatch.task in
  if st.validate && is_completed st i then
    fail "task %d completed twice" task.T.task_id;
  Bytes.set st.completed i '\001';
  record_busy st task task.T.exec_time;
  let jdx = st.job_of.(i) in
  let j = st.jobs.(jdx) in
  st.tasks_done.(jdx) <- st.tasks_done.(jdx) + 1;
  if task.T.kind = T.Map_task then st.maps_done.(jdx) <- st.maps_done.(jdx) + 1;
  if st.tasks_done.(jdx) = T.task_count j then begin
    let outcome =
      {
        job = j;
        completion = now;
        late = now > j.T.deadline;
        turnaround_ms = now - j.T.earliest_start;
      }
    in
    st.outcomes <- outcome :: st.outcomes;
    journal_job_done st jdx outcome;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~cat:"sim" "job-done"
        ~args:
          [
            ("job", Obs.Trace.Int j.T.id);
            ("late", Obs.Trace.Bool outcome.late);
            ("completion_ms", Obs.Trace.Int now);
          ]
  end;
  st.driver.Driver.task_completed ~now ~task_id:task.T.task_id;
  react st sim

(* A chaos-injected attempt failure: the slot frees, the wasted work is
   accounted as lost, and the manager is told to re-enter the task. *)
and on_attempt_fail st i (d : Dispatch.t) ~attempt ~wasted sim =
  let now = Engine.now sim in
  let task = d.Dispatch.task in
  st.started_d.(i) <- no_dispatch;
  st.started_h.(i) <- Engine.none;
  set_busy st d ~task_id:task.T.task_id ~until:now;
  record_busy st task wasted;
  st.lost_work_ms <- st.lost_work_ms + wasted;
  st.task_failures <- st.task_failures + 1;
  st.last_fault_t <- now;
  (match st.journal with
  | None -> ()
  | Some jr ->
      Obs.Journal.event jr ~t_ms:now "task-attempt-failed"
        [
          ("task", Obs.Json.Int task.T.task_id);
          ("job", Obs.Json.Int task.T.job_id);
          ("attempt", Obs.Json.Int attempt);
          ("wasted_ms", Obs.Json.Int wasted);
        ]);
  st.driver.Driver.task_attempt_failed ~now ~task_id:task.T.task_id;
  react st sim

(* Start one attempt of a task.  Chaos faults are looked up by (task,
   attempt): a straggler inflates the executed duration (the manager is
   notified so its frozen record matches reality), an injected failure
   replaces the completion event with a failure event part-way through. *)
and start_attempt st i (d : Dispatch.t) sim =
  let now = Engine.now sim in
  let task = d.Dispatch.task in
  let attempt = st.attempts.(i) in
  st.attempts.(i) <- attempt + 1;
  let straggle = chaos_lookup st.straggle_at i attempt in
  let actual =
    match straggle with
    | Some factor_1000 ->
        max (task.T.exec_time + 1)
          (((task.T.exec_time * factor_1000) + 999) / 1000)
    | None -> task.T.exec_time
  in
  let d =
    if actual = task.T.exec_time then d
    else { d with Dispatch.task = { task with T.exec_time = actual } }
  in
  if st.validate then check_start st i d now;
  let jdx = st.job_of.(i) in
  if st.first_start.(jdx) = min_int then st.first_start.(jdx) <- now;
  let handle =
    match chaos_lookup st.fail_at i attempt with
    | Some frac_1000 ->
        let wasted = min actual (max 1 (actual * frac_1000 / 1000)) in
        Engine.schedule_after ~rank:0 sim ~delay:wasted
          (on_attempt_fail st i d ~attempt ~wasted)
    | None ->
        Engine.schedule_after ~rank:0 sim ~delay:actual
          (on_task_complete st i d)
  in
  st.started_d.(i) <- d;
  st.started_h.(i) <- handle;
  match straggle with
  | None -> ()
  | Some factor_1000 ->
      st.stragglers <- st.stragglers + 1;
      st.last_fault_t <- now;
      (match st.journal with
      | None -> ()
      | Some jr ->
          Obs.Journal.event jr ~t_ms:now "straggler"
            [
              ("task", Obs.Json.Int task.T.task_id);
              ("job", Obs.Json.Int task.T.job_id);
              ("attempt", Obs.Json.Int attempt);
              ("factor_1000", Obs.Json.Int factor_1000);
              ("exec_ms", Obs.Json.Int task.T.exec_time);
              ("inflated_ms", Obs.Json.Int actual);
            ]);
      st.driver.Driver.task_started ~now ~task_id:task.T.task_id
        ~exec_ms:actual;
      (* re-plan immediately: the slot is now busy past the nominal finish
         the manager planned around, and pending starts may collide with it *)
      react st sim

and on_task_start st i (d : Dispatch.t) sim =
  remove_planned st i;
  start_attempt st i d sim

and launch_now st (d : Dispatch.t) sim =
  (* immediate managers mark tasks running themselves; just execute *)
  let now = Engine.now sim in
  let id = d.Dispatch.task.T.task_id in
  if d.Dispatch.start <> now then
    fail "immediate dispatch of task %d at %d but now=%d" id d.Dispatch.start
      now;
  let i = index_of st id in
  if i < 0 then fail "launch of task %d, which no job of the run has" id;
  start_attempt st i d sim

(* A resource crash (rank 3: same-instant completions and starts settle
   first).  Every in-flight attempt on the resource dies, its partial work
   is lost, and the manager is notified before reacting. *)
and on_crash st ~resource ~rejoin sim =
  let now = Engine.now sim in
  Bytes.set st.down resource '\001';
  st.crashes <- st.crashes + 1;
  st.last_fault_t <- now;
  let victims = ref [] in
  for i = Array.length st.started_d - 1 downto 0 do
    let d = st.started_d.(i) in
    if
      d != no_dispatch && d.Dispatch.resource_id = resource
      && not (is_completed st i)
    then victims := (d.Dispatch.task.T.task_id, i) :: !victims
  done;
  let victims = List.sort (fun (a, _) (b, _) -> compare a b) !victims in
  let lost_ms = ref 0 in
  List.iter
    (fun (id, i) ->
      let d = st.started_d.(i) in
      Engine.cancel sim st.started_h.(i);
      st.started_d.(i) <- no_dispatch;
      st.started_h.(i) <- Engine.none;
      let consumed = now - d.Dispatch.start in
      lost_ms := !lost_ms + consumed;
      record_busy st d.Dispatch.task consumed;
      set_busy st d ~task_id:id ~until:now)
    victims;
  st.lost_work_ms <- st.lost_work_ms + !lost_ms;
  let lost = List.map fst victims in
  (match st.journal with
  | None -> ()
  | Some jr ->
      Obs.Journal.event jr ~t_ms:now "resource-crash"
        [
          ("resource", Obs.Json.Int resource);
          ("lost", Obs.Json.List (List.map (fun i -> Obs.Json.Int i) lost));
          ("lost_ms", Obs.Json.Int !lost_ms);
          ( "rejoin",
            match rejoin with Some t -> Obs.Json.Int t | None -> Obs.Json.Null
          );
        ]);
  st.driver.Driver.resource_lost ~now ~resource_id:resource ~lost;
  react st sim

and on_rejoin st ~resource sim =
  let now = Engine.now sim in
  Bytes.set st.down resource '\000';
  st.rejoins <- st.rejoins + 1;
  st.last_fault_t <- now;
  (match st.journal with
  | None -> ()
  | Some jr ->
      Obs.Journal.event jr ~t_ms:now "resource-rejoin"
        [ ("resource", Obs.Json.Int resource) ]);
  st.driver.Driver.resource_rejoined ~now ~resource_id:resource;
  react st sim

(* Bring the pending start events in line with a new plan, touching only
   the dispatches that moved or left.  Three walks, all over ints:
   - the plan: number its tasks, stamping each as to be scheduled (a task
     listed twice keeps its first place and its last dispatch);
   - the planned tasks: an event whose start time is <= now is "in flight":
     it fires later within this same instant (start events carry a later
     rank than arrivals), and the manager has already classified its task
     as started/frozen, so it is legitimately absent from the new plan —
     keep it and ignore the plan's entry.  A later event stays when the
     plan repeats its dispatch, is cancelled when its task left the plan,
     and moves in the next walk otherwise;
   - the stamped new or moved dispatches, scheduled (a moved event in one
     heap operation).  A manager whose plan is only refreshed on re-solves
     may re-present dispatches for tasks that started meanwhile: identical
     dispatches are stale-but-consistent and skipped; a different dispatch
     for a started task is a real manager bug.
   Two start events at one instant fire in the order they were scheduled,
   so the new ones are scheduled in a fixed order: the order in which a
   [Hashtbl.create 64] of the plan keyed by task id iterates (ascending
   bucket, the later-inserted first within a bucket; the table doubles
   its buckets whenever it holds more than two entries per bucket), which
   is how this walk was once made.  Only the ties on start time need it;
   the plan is sorted by start, so the insertion sort below costs one
   compare per dispatch beyond them. *)
and reconcile st plan sim =
  let now = Engine.now sim in
  let stamp = st.stamp + 2 in
  st.stamp <- stamp;
  let n = ref 0 and distinct = ref 0 in
  List.iter
    (fun (d : Dispatch.t) ->
      let id = d.Dispatch.task.T.task_id in
      let i = index_of st id in
      if i < 0 then
        fail "plan dispatches task %d, which no job of the run has" id;
      let p = !n in
      if p = Array.length st.plan_idx then begin
        let len = max 64 (2 * p) in
        st.plan_idx <- Array.append st.plan_idx (Array.make (len - p) (-1));
        st.plan_d <- Array.append st.plan_d (Array.make (len - p) no_dispatch);
        st.cand <- Array.make len 0
      end;
      if st.seen.(i) = stamp then begin
        st.plan_d.(st.first_pos.(i)) <- d;
        st.plan_idx.(p) <- -1
      end
      else begin
        st.seen.(i) <- stamp;
        st.first_pos.(i) <- p;
        st.plan_idx.(p) <- i;
        st.plan_d.(p) <- d;
        incr distinct
      end;
      n := p + 1)
    plan;
  for k = st.n_planned - 1 downto 0 do
    let i = st.planned_set.(k) in
    let old_d = st.planned_d.(i) in
    let listed = st.seen.(i) = stamp in
    if old_d.Dispatch.start <= now then begin
      if listed then st.seen.(i) <- stamp + 1
    end
    else if listed then begin
      if Dispatch.equal st.plan_d.(st.first_pos.(i)) old_d then
        st.seen.(i) <- stamp + 1
    end
    else begin
      Engine.cancel sim st.planned_h.(i);
      remove_planned st i
    end
  done;
  let buckets = ref 64 in
  while !distinct > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 in
  let precedes p q =
    let dp = st.plan_d.(p) and dq = st.plan_d.(q) in
    let sp = dp.Dispatch.start and sq = dq.Dispatch.start in
    sp < sq
    || sp = sq
       &&
       let bucket (d : Dispatch.t) =
         Hashtbl.hash d.Dispatch.task.T.task_id land mask
       in
       let bp = bucket dp and bq = bucket dq in
       bp < bq || (bp = bq && p > q)
  in
  let m = ref 0 in
  for p = 0 to !n - 1 do
    let i = st.plan_idx.(p) in
    if i >= 0 && st.seen.(i) = stamp then begin
      let k = ref !m in
      while !k > 0 && precedes p st.cand.(!k - 1) do
        st.cand.(!k) <- st.cand.(!k - 1);
        decr k
      done;
      st.cand.(!k) <- p;
      incr m
    end
  done;
  for k = 0 to !m - 1 do
    let p = st.cand.(k) in
    let i = st.plan_idx.(p) and d = st.plan_d.(p) in
    if is_started st i then begin
      if not (Dispatch.equal st.started_d.(i) d) then
        fail "plan re-schedules already-started task %d"
          d.Dispatch.task.T.task_id
    end
    else begin
      if d.Dispatch.start < now then
        fail "plan schedules task %d at %d in the past (now=%d)"
          d.Dispatch.task.T.task_id d.Dispatch.start now;
      set_planned st i d
        (Engine.reschedule ~rank:2 sim st.planned_h.(i) ~at:d.Dispatch.start
           (on_task_start st i d))
    end
  done

and update_wake st sim =
  let now = Engine.now sim in
  match st.driver.Driver.next_wake ~now with
  | None ->
      if st.wake_at <> min_int then begin
        Engine.cancel sim st.wake_h;
        st.wake_at <- min_int;
        st.wake_h <- Engine.none
      end
  | Some w ->
      let at = max w (now + 1) in
      if at <> st.wake_at then begin
        Engine.cancel sim st.wake_h;
        st.wake_at <- at;
        st.wake_h <-
          Engine.schedule sim ~at (fun sim ->
              st.wake_at <- min_int;
              st.wake_h <- Engine.none;
              react st sim)
      end

and react st sim =
  let now = Engine.now sim in
  (match st.driver.Driver.react ~now with
  | Driver.Full_plan plan -> reconcile st plan sim
  | Driver.Launch ds -> List.iter (fun d -> launch_now st d sim) ds
  | Driver.No_change -> ());
  update_wake st sim

(* One arrival: the job enters the system and is handed to the manager. *)
let arrive st (job : T.job) sim =
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~cat:"sim" "job-arrival"
      ~args:[ ("job", Obs.Trace.Int job.T.id) ];
  (match st.journal with
  | None -> ()
  | Some jr ->
      Obs.Journal.event jr ~t_ms:(Engine.now sim) "arrival"
        [
          ("job", Obs.Json.Int job.T.id);
          ("est", Obs.Json.Int job.T.earliest_start);
          ("deadline", Obs.Json.Int job.T.deadline);
          ("tasks", Obs.Json.Int (T.task_count job));
        ]);
  st.driver.Driver.submit ~now:(Engine.now sim) job

(* With ~validate: every submitted task must have completed exactly once
   (the run-end completeness half of the oracle; the exactly-once half is
   the completed-twice check as events execute).  Tasks are never "lost":
   crash-killed and failed attempts re-enter the open set, so a missing
   completion is a manager/simulator bug, not an expected chaos outcome. *)
let check_completeness st =
  let i = ref 0 in
  Array.iter
    (fun (j : T.job) ->
      let check (task : T.task) =
        if not (is_completed st !i) then
          fail "task %d of job %d was submitted but never completed"
            task.T.task_id j.T.id;
        incr i
      in
      Array.iter check j.T.map_tasks;
      Array.iter check j.T.reduce_tasks)
    st.jobs

let create_state ~validate ~journal ~chaos ~driver jobs =
  let jobs = Array.of_list jobs in
  let n = Array.fold_left (fun acc j -> acc + T.task_count j) 0 jobs in
  let job_of = Array.make n 0 in
  let lo = ref max_int and hi = ref min_int and i = ref 0 in
  Array.iteri
    (fun jdx (j : T.job) ->
      let number (task : T.task) =
        job_of.(!i) <- jdx;
        lo := min !lo task.T.task_id;
        hi := max !hi task.T.task_id;
        incr i
      in
      Array.iter number j.T.map_tasks;
      Array.iter number j.T.reduce_tasks)
    jobs;
  (* the generators number a workload's tasks consecutively; a replayed
     trace may use any ids *)
  let dense = n > 0 && !hi - !lo < (4 * n) + 1024 in
  let by_id = if dense then Array.make (!hi - !lo + 1) (-1) else [||] in
  let by_sparse_id = Hashtbl.create (if dense then 1 else n) in
  let i = ref 0 in
  Array.iter
    (fun (j : T.job) ->
      let number (task : T.task) =
        let id = task.T.task_id in
        let known =
          if dense then by_id.(id - !lo) >= 0 else Hashtbl.mem by_sparse_id id
        in
        if known then
          invalid_arg
            (Printf.sprintf "Simulator.run: task id %d appears twice" id);
        if dense then by_id.(id - !lo) <- !i
        else Hashtbl.replace by_sparse_id id !i;
        incr i
      in
      Array.iter number j.T.map_tasks;
      Array.iter number j.T.reduce_tasks)
    jobs;
  let task_faults =
    List.exists (function Chaos.Crash _ -> false | _ -> true) chaos
  in
  let max_resource =
    List.fold_left
      (fun acc -> function
        | Chaos.Crash { resource; _ } -> max acc resource | _ -> acc)
      (-1) chaos
  in
  let nj = Array.length jobs in
  {
    driver;
    validate;
    journal;
    jobs;
    job_of;
    id_base = !lo;
    by_id;
    by_sparse_id;
    tasks_done = Array.make nj 0;
    maps_done = Array.make nj 0;
    first_start = Array.make nj min_int;
    planned_d = Array.make n no_dispatch;
    planned_h = Array.make n Engine.none;
    started_d = Array.make n no_dispatch;
    started_h = Array.make n Engine.none;
    completed = Bytes.make n '\000';
    attempts = Array.make n 0;
    fail_at = (if task_faults then Array.make n [] else [||]);
    straggle_at = (if task_faults then Array.make n [] else [||]);
    down = Bytes.make (max_resource + 1) '\000';
    planned_set = Array.make n 0;
    planned_pos = Array.make n 0;
    n_planned = 0;
    plan_idx = [||];
    plan_d = [||];
    cand = [||];
    seen = Array.make n (-1);
    first_pos = Array.make n 0;
    stamp = 0;
    busy_task = [||];
    busy_until = [||];
    wake_at = min_int;
    wake_h = Engine.none;
    outcomes = [];
    map_busy_ms = 0;
    reduce_busy_ms = 0;
    crashes = 0;
    rejoins = 0;
    task_failures = 0;
    stragglers = 0;
    lost_work_ms = 0;
    last_fault_t = 0;
  }

let run ?(validate = false) ?journal ?metrics_every ?cluster
    ?(chaos = Chaos.no_faults) ~driver ~jobs () =
  if jobs = [] then invalid_arg "Simulator.run: no jobs";
  let engine = Engine.create () in
  let st = create_state ~validate ~journal ~chaos ~driver jobs in
  (* materialized fault plan -> per-task lookup lists + scheduled crash
     events; a later entry for the same (task, attempt) wins *)
  List.iter
    (function
      | Chaos.Crash { resource; at; rejoin } ->
          ignore
            (Engine.schedule ~rank:3 engine ~at (on_crash st ~resource ~rejoin));
          (match rejoin with
          | Some rt ->
              ignore (Engine.schedule ~rank:3 engine ~at:rt (on_rejoin st ~resource))
          | None -> ())
      | Chaos.Task_failure { task; attempt; frac_1000 } ->
          let i = index_of st task in
          if i >= 0 then
            st.fail_at.(i) <- (attempt, frac_1000) :: st.fail_at.(i)
      | Chaos.Straggler { task; attempt; factor_1000 } ->
          let i = index_of st task in
          if i >= 0 then
            st.straggle_at.(i) <- (attempt, factor_1000) :: st.straggle_at.(i))
    chaos;
  (* one event per arrival instant: every job arriving then is submitted
     (in list order), then the manager reacts once *)
  let order = Array.init (Array.length st.jobs) Fun.id in
  Array.stable_sort
    (fun a b -> compare st.jobs.(a).T.arrival st.jobs.(b).T.arrival)
    order;
  let k = ref 0 in
  while !k < Array.length order do
    let first = !k and at = st.jobs.(order.(!k)).T.arrival in
    while !k < Array.length order && st.jobs.(order.(!k)).T.arrival = at do
      incr k
    done;
    let last = !k - 1 in
    ignore
      (Engine.schedule engine ~at (fun sim ->
           for k = first to last do
             arrive st st.jobs.(order.(k)) sim
           done;
           react st sim))
  done;
  Obs.Trace.with_span ~cat:"sim" "simulate"
    ~args:[ ("jobs", Obs.Trace.Int (List.length jobs)) ]
    (fun () ->
      match (journal, metrics_every) with
      | Some jr, Some every when every > 0 ->
          (* drain in virtual-time slices, dumping a metrics snapshot at
             every multiple of [every].  The snapshot body lives under the
             wall key: histograms of wall-clock latencies are not
             deterministic across runs, only the snapshot's presence is. *)
          let next = ref every in
          while Engine.pending engine > 0 do
            Engine.run ~until:!next engine;
            if Engine.pending engine > 0 then begin
              let m =
                match driver.Driver.metrics () with
                | Some s -> Obs.Metrics.to_json s
                | None -> Obs.Json.Null
              in
              Obs.Journal.event jr ~t_ms:!next "snapshot"
                ~wall:[ ("metrics", m) ]
                [
                  ("completed", Obs.Json.Int (List.length st.outcomes));
                  ("solves", Obs.Json.Int (driver.Driver.solve_count ()));
                ]
            end;
            next := !next + every
          done
      | _ -> Engine.run_until_empty engine);
  let jobs_total = List.length jobs in
  let done_total = List.length st.outcomes in
  if done_total <> jobs_total then
    fail "simulation ended with %d/%d jobs completed" done_total jobs_total;
  if validate then check_completeness st;
  let outcomes = List.rev st.outcomes in
  let n_late = List.length (List.filter (fun o -> o.late) outcomes) in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0. outcomes in
  let nf = float_of_int jobs_total in
  let total_overhead_s = driver.Driver.overhead_seconds () in
  let makespan_ms =
    List.fold_left (fun acc o -> max acc o.completion) 0 outcomes
  in
  (* run-end oracle line: the totals the audit tool recomputes from the
     per-job and fault lines alone and cross-checks against.  Its timestamp
     covers trailing fault events (a rejoin can postdate the last
     completion), keeping t monotone within the run. *)
  (match journal with
  | None -> ()
  | Some jr ->
      Obs.Journal.event jr ~t_ms:(max makespan_ms st.last_fault_t) "run-end"
        ~wall:
          [
            ("total_overhead_s", Obs.Json.Float total_overhead_s);
            ( "o_per_job_s",
              Obs.Json.Float (total_overhead_s /. float_of_int jobs_total) );
            ( "max_invocation_s",
              Obs.Json.Float (driver.Driver.max_invocation_seconds ()) );
          ]
        [
          ("manager", Obs.Json.String driver.Driver.name);
          ("jobs_total", Obs.Json.Int jobs_total);
          ("n_late", Obs.Json.Int n_late);
          ("solves", Obs.Json.Int (driver.Driver.solve_count ()));
          ("makespan_ms", Obs.Json.Int makespan_ms);
          ("crashes", Obs.Json.Int st.crashes);
          ("rejoins", Obs.Json.Int st.rejoins);
          ("task_failures", Obs.Json.Int st.task_failures);
          ("stragglers", Obs.Json.Int st.stragglers);
          ("lost_work_ms", Obs.Json.Int st.lost_work_ms);
        ]);
  let utilization cluster slots_of busy makespan =
    match cluster with
    | None -> None
    | Some c ->
        let slots = slots_of c in
        if slots = 0 || makespan = 0 then None
        else Some (float_of_int busy /. float_of_int (slots * makespan))
  in
  {
    manager = driver.Driver.name;
    outcomes;
    jobs_total;
    n_late;
    p_late = float_of_int n_late /. nf;
    avg_turnaround_s = sum (fun o -> float_of_int o.turnaround_ms /. 1000.) /. nf;
    avg_turnaround_from_arrival_s =
      sum (fun o -> float_of_int (o.completion - o.job.T.arrival) /. 1000.)
      /. nf;
    overhead_per_job_s = total_overhead_s /. nf;
    total_overhead_s;
    solves = driver.Driver.solve_count ();
    max_invocation_s = driver.Driver.max_invocation_seconds ();
    makespan_ms;
    map_busy_ms = st.map_busy_ms;
    reduce_busy_ms = st.reduce_busy_ms;
    map_utilization =
      utilization cluster T.total_map_slots st.map_busy_ms makespan_ms;
    reduce_utilization =
      utilization cluster T.total_reduce_slots st.reduce_busy_ms makespan_ms;
    events_executed = Engine.events_executed engine;
    metrics = driver.Driver.metrics ();
    crashes = st.crashes;
    rejoins = st.rejoins;
    task_failures = st.task_failures;
    stragglers = st.stragglers;
    lost_work_ms = st.lost_work_ms;
  }

let pp_results fmt r =
  Format.fprintf fmt
    "@[<v>%s: %d jobs, N=%d (P=%.2f%%), T=%.1fs, O=%.6fs/job (total %.3fs, \
     %d solves), makespan=%.1fs%s@]"
    r.manager r.jobs_total r.n_late (100. *. r.p_late) r.avg_turnaround_s
    r.overhead_per_job_s r.total_overhead_s r.solves
    (float_of_int r.makespan_ms /. 1000.)
    (if r.crashes + r.task_failures + r.stragglers = 0 then ""
     else
       Printf.sprintf ", chaos: %d crashes, %d failed attempts, %d stragglers, %.1fs lost"
         r.crashes r.task_failures r.stragglers
         (float_of_int r.lost_work_ms /. 1000.))
