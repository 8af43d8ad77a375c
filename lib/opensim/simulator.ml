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

type job_progress = {
  j : T.job;
  mutable tasks_done : int;
  mutable maps_done : int;
  task_count : int;
  map_count : int;
}

(* A started attempt: the dispatch as executed (a straggler's inflated
   execution time replaces the nominal one) plus the handle of its pending
   completion/failure event, so a crash can cancel it. *)
type attempt = { r_d : Dispatch.t; r_done : Engine.handle }

type state = {
  driver : Driver.t;
  validate : bool;
  journal : Obs.Journal.t option;
  engine : Engine.t;
  progress : (int, job_progress) Hashtbl.t; (* job_id -> progress *)
  planned : (int, Engine.handle * Dispatch.t) Hashtbl.t; (* unstarted *)
  started : (int, attempt) Hashtbl.t;
  completed : (int, unit) Hashtbl.t;
  first_start : (int, int) Hashtbl.t; (* job_id -> first task start time *)
  slot_busy_until : (T.task_kind * int, int * int) Hashtbl.t;
      (* (kind, slot) -> (occupant task, busy until) *)
  (* chaos: per-(task, attempt) fault lookups materialized from the plan,
     the next attempt index per task, and the resources currently down *)
  chaos_fail : (int * int, int) Hashtbl.t; (* -> frac_1000 *)
  chaos_straggle : (int * int, int) Hashtbl.t; (* -> factor_1000 *)
  attempts : (int, int) Hashtbl.t;
  down : (int, unit) Hashtbl.t;
  mutable wake : (int * Engine.handle) option;
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

let record_busy st (task : T.task) ms =
  match task.T.kind with
  | T.Map_task -> st.map_busy_ms <- st.map_busy_ms + ms
  | T.Reduce_task -> st.reduce_busy_ms <- st.reduce_busy_ms + ms

let record_first_start st (task : T.task) now =
  if not (Hashtbl.mem st.first_start task.T.job_id) then
    Hashtbl.replace st.first_start task.T.job_id now

(* Terminal journal lines for one completed job: "job-done" with the
   lateness split into queue wait (first task start − s_j), execution
   (first start → completion) and — under the wall key, because it is
   measured in wall-clock seconds — the solver/matchmaking overhead the
   manager attributed to the job; then the job's final SLA verdict. *)
let journal_job_done st (outcome : job_outcome) =
  match st.journal with
  | None -> ()
  | Some jr ->
      let j = outcome.job in
      let first_start =
        Option.value
          (Hashtbl.find_opt st.first_start j.T.id)
          ~default:outcome.completion
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

let check_start st (d : Dispatch.t) now =
  let task = d.Dispatch.task in
  if Hashtbl.mem st.started task.T.task_id then
    fail "task %d started twice" task.T.task_id;
  if Hashtbl.mem st.down d.Dispatch.resource_id then
    fail "task %d dispatched to crashed resource %d" task.T.task_id
      d.Dispatch.resource_id;
  let jp =
    match Hashtbl.find_opt st.progress task.T.job_id with
    | Some jp -> jp
    | None -> fail "task %d belongs to unknown job %d" task.T.task_id task.T.job_id
  in
  if now < jp.j.T.earliest_start then
    fail "task %d of job %d started at %d before s_j=%d" task.T.task_id
      task.T.job_id now jp.j.T.earliest_start;
  (match task.T.kind with
  | T.Reduce_task ->
      if jp.maps_done < jp.map_count then
        fail "reduce task %d of job %d started with %d/%d maps done"
          task.T.task_id task.T.job_id jp.maps_done jp.map_count
  | T.Map_task -> ());
  (* a zero-length task occupies no slot time, so it neither conflicts with
     the slot's occupant nor replaces it *)
  if task.T.exec_time > 0 then begin
    let key = (task.T.kind, d.Dispatch.slot) in
    (match Hashtbl.find_opt st.slot_busy_until key with
    | Some (other, until) when until > now ->
        fail "%s slot %d double-booked at %d: task %d overlaps task %d"
          (T.task_kind_to_string task.T.kind)
          d.Dispatch.slot now task.T.task_id other
    | Some _ | None -> ());
    Hashtbl.replace st.slot_busy_until key
      (task.T.task_id, now + task.T.exec_time)
  end

let rec on_task_complete st (d : Dispatch.t) sim =
  let now = Engine.now sim in
  let task = d.Dispatch.task in
  if st.validate then begin
    if Hashtbl.mem st.completed task.T.task_id then
      fail "task %d completed twice" task.T.task_id
  end;
  Hashtbl.replace st.completed task.T.task_id ();
  record_busy st task task.T.exec_time;
  let jp = Hashtbl.find st.progress task.T.job_id in
  jp.tasks_done <- jp.tasks_done + 1;
  if task.T.kind = T.Map_task then jp.maps_done <- jp.maps_done + 1;
  if jp.tasks_done = jp.task_count then begin
    let outcome =
      {
        job = jp.j;
        completion = now;
        late = now > jp.j.T.deadline;
        turnaround_ms = now - jp.j.T.earliest_start;
      }
    in
    st.outcomes <- outcome :: st.outcomes;
    journal_job_done st outcome;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~cat:"sim" "job-done"
        ~args:
          [
            ("job", Obs.Trace.Int jp.j.T.id);
            ("late", Obs.Trace.Bool outcome.late);
            ("completion_ms", Obs.Trace.Int now);
          ]
  end;
  st.driver.Driver.task_completed ~now ~task_id:task.T.task_id;
  react st sim

(* A chaos-injected attempt failure: the slot frees, the wasted work is
   accounted as lost, and the manager is told to re-enter the task. *)
and on_attempt_fail st (d : Dispatch.t) ~attempt ~wasted sim =
  let now = Engine.now sim in
  let task = d.Dispatch.task in
  Hashtbl.remove st.started task.T.task_id;
  Hashtbl.replace st.slot_busy_until (task.T.kind, d.Dispatch.slot)
    (task.T.task_id, now);
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
and start_attempt st (d : Dispatch.t) sim =
  let now = Engine.now sim in
  let task = d.Dispatch.task in
  let attempt =
    Option.value (Hashtbl.find_opt st.attempts task.T.task_id) ~default:0
  in
  Hashtbl.replace st.attempts task.T.task_id (attempt + 1);
  let key = (task.T.task_id, attempt) in
  let straggle = Hashtbl.find_opt st.chaos_straggle key in
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
  if st.validate then check_start st d now;
  record_first_start st d.Dispatch.task now;
  let handle =
    match Hashtbl.find_opt st.chaos_fail key with
    | Some frac_1000 ->
        let wasted = min actual (max 1 (actual * frac_1000 / 1000)) in
        Engine.schedule_after ~rank:0 sim ~delay:wasted
          (on_attempt_fail st d ~attempt ~wasted)
    | None ->
        Engine.schedule_after ~rank:0 sim ~delay:actual
          (on_task_complete st d)
  in
  Hashtbl.replace st.started task.T.task_id { r_d = d; r_done = handle };
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

and on_task_start st (d : Dispatch.t) sim =
  Hashtbl.remove st.planned d.Dispatch.task.T.task_id;
  start_attempt st d sim

and launch_now st (d : Dispatch.t) sim =
  (* immediate managers mark tasks running themselves; just execute *)
  let now = Engine.now sim in
  if d.Dispatch.start <> now then
    fail "immediate dispatch of task %d at %d but now=%d"
      d.Dispatch.task.T.task_id d.Dispatch.start now;
  start_attempt st d sim

(* A resource crash (rank 3: same-instant completions and starts settle
   first).  Every in-flight attempt on the resource dies, its partial work
   is lost, and the manager is notified before reacting. *)
and on_crash st ~resource ~rejoin sim =
  let now = Engine.now sim in
  Hashtbl.replace st.down resource ();
  st.crashes <- st.crashes + 1;
  st.last_fault_t <- now;
  let victims =
    Hashtbl.fold
      (fun id (a : attempt) acc ->
        if
          a.r_d.Dispatch.resource_id = resource
          && not (Hashtbl.mem st.completed id)
        then (id, a) :: acc
        else acc)
      st.started []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let lost_ms = ref 0 in
  List.iter
    (fun (id, (a : attempt)) ->
      Engine.cancel sim a.r_done;
      Hashtbl.remove st.started id;
      let task = a.r_d.Dispatch.task in
      let consumed = now - a.r_d.Dispatch.start in
      lost_ms := !lost_ms + consumed;
      record_busy st task consumed;
      Hashtbl.replace st.slot_busy_until (task.T.kind, a.r_d.Dispatch.slot)
        (id, now))
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
  Hashtbl.remove st.down resource;
  st.rejoins <- st.rejoins + 1;
  st.last_fault_t <- now;
  (match st.journal with
  | None -> ()
  | Some jr ->
      Obs.Journal.event jr ~t_ms:now "resource-rejoin"
        [ ("resource", Obs.Json.Int resource) ]);
  st.driver.Driver.resource_rejoined ~now ~resource_id:resource;
  react st sim

and reconcile st plan sim =
  let now = Engine.now sim in
  let fresh = Hashtbl.create 64 in
  List.iter
    (fun (d : Dispatch.t) ->
      Hashtbl.replace fresh d.Dispatch.task.T.task_id d)
    plan;
  (* drop or keep existing pending start events.  An event whose start time
     is <= now is "in flight": it fires later within this same instant
     (start events carry a later rank than arrivals), and the manager has
     already classified its task as started/frozen, so it is legitimately
     absent from the new plan — keep it. *)
  let stale = ref [] in
  Hashtbl.iter
    (fun task_id ((handle, old_d) : Engine.handle * Dispatch.t) ->
      if old_d.Dispatch.start > now then begin
        match Hashtbl.find_opt fresh task_id with
        | Some new_d when new_d = old_d -> Hashtbl.remove fresh task_id
        | Some _ | None -> stale := (task_id, handle) :: !stale
      end
      else Hashtbl.remove fresh task_id)
    st.planned;
  List.iter
    (fun (task_id, handle) ->
      Engine.cancel sim handle;
      Hashtbl.remove st.planned task_id)
    !stale;
  (* schedule the new or changed dispatches.  A manager whose plan is only
     refreshed on re-solves may re-present dispatches for tasks that started
     meanwhile: identical dispatches are stale-but-consistent and skipped;
     a different dispatch for a started task is a real manager bug. *)
  Hashtbl.iter
    (fun task_id (d : Dispatch.t) ->
      match Hashtbl.find_opt st.started task_id with
      | Some a when a.r_d = d -> ()
      | Some _ -> fail "plan re-schedules already-started task %d" task_id
      | None ->
      if d.Dispatch.start < now then
        fail "plan schedules task %d at %d in the past (now=%d)" task_id
          d.Dispatch.start now;
      let handle =
        Engine.schedule ~rank:2 sim ~at:d.Dispatch.start (on_task_start st d)
      in
      Hashtbl.replace st.planned task_id (handle, d))
    fresh

and update_wake st sim =
  let now = Engine.now sim in
  let desired = st.driver.Driver.next_wake ~now in
  let desired = Option.map (fun w -> max w (now + 1)) desired in
  match (st.wake, desired) with
  | None, None -> ()
  | Some (at, _), Some at' when at = at' -> ()
  | prev, _ ->
      (match prev with
      | Some (_, handle) -> Engine.cancel sim handle
      | None -> ());
      st.wake <-
        Option.map
          (fun at ->
            let handle =
              Engine.schedule sim ~at (fun sim ->
                  st.wake <- None;
                  react st sim)
            in
            (at, handle))
          desired

and react st sim =
  let now = Engine.now sim in
  (match st.driver.Driver.react ~now with
  | Driver.Full_plan plan -> reconcile st plan sim
  | Driver.Launch ds -> List.iter (fun d -> launch_now st d sim) ds
  | Driver.No_change -> ());
  update_wake st sim

(* With ~validate: every submitted task must have completed exactly once
   (the run-end completeness half of the oracle; the exactly-once half is
   the completed-twice check as events execute).  Tasks are never "lost":
   crash-killed and failed attempts re-enter the open set, so a missing
   completion is a manager/simulator bug, not an expected chaos outcome. *)
let check_completeness st =
  Hashtbl.iter
    (fun _ jp ->
      let check (task : T.task) =
        if not (Hashtbl.mem st.completed task.T.task_id) then
          fail "task %d of job %d was submitted but never completed"
            task.T.task_id jp.j.T.id
      in
      Array.iter check jp.j.T.map_tasks;
      Array.iter check jp.j.T.reduce_tasks)
    st.progress

let run ?(validate = false) ?journal ?metrics_every ?cluster
    ?(chaos = Chaos.no_faults) ~driver ~jobs () =
  if jobs = [] then invalid_arg "Simulator.run: no jobs";
  let engine = Engine.create () in
  let st =
    {
      driver;
      validate;
      journal;
      engine;
      progress = Hashtbl.create 256;
      planned = Hashtbl.create 256;
      started = Hashtbl.create 1024;
      completed = Hashtbl.create 1024;
      first_start = Hashtbl.create 256;
      slot_busy_until = Hashtbl.create 256;
      chaos_fail = Hashtbl.create 16;
      chaos_straggle = Hashtbl.create 16;
      attempts = Hashtbl.create 64;
      down = Hashtbl.create 8;
      wake = None;
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
  in
  (* materialized fault plan -> lookup tables + scheduled crash events *)
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
          Hashtbl.replace st.chaos_fail (task, attempt) frac_1000
      | Chaos.Straggler { task; attempt; factor_1000 } ->
          Hashtbl.replace st.chaos_straggle (task, attempt) factor_1000)
    chaos;
  List.iter
    (fun (job : T.job) ->
      Hashtbl.replace st.progress job.T.id
        {
          j = job;
          tasks_done = 0;
          maps_done = 0;
          task_count = T.task_count job;
          map_count = Array.length job.T.map_tasks;
        };
      ignore
        (Engine.schedule engine ~at:job.T.arrival (fun sim ->
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
             st.driver.Driver.submit ~now:(Engine.now sim) job;
             react st sim)))
    jobs;
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
