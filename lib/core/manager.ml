module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution
module Dispatch = Sched.Dispatch

let log_src = Logs.Src.create "mrcp.manager" ~doc:"MRCP-RM resource manager"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  solver : Cp.Solver.options;
  deferral_window : int option;
  validate : bool;
  journal : Obs.Journal.t option;
}

let default_config =
  {
    solver = Cp.Solver.default_options;
    deferral_window = Some 300_000 (* 300 s *);
    validate = false;
    journal = None;
  }

type task_state = {
  nominal : T.task; (* as submitted; [task] may carry a straggler's inflated
                       execution time for the current attempt *)
  mutable task : T.task;
  mutable dispatch : Dispatch.t option;
  mutable finished : bool;
}

type job_state = {
  job : T.job;
  mutable est : int;
  maps : task_state array;
  reduces : task_state array;
  (* the tasks not finished yet, each phase in task order: a pass walks
     these, not the whole job.  A finished task leaves them, and its finish
     folds into [done_lfmt] (maps) and [done_completion] (every task), 0
     while none has finished *)
  mutable open_maps : task_state array;
  mutable open_reduces : task_state array;
  mutable done_lfmt : int;
  mutable done_completion : int;
}

type t = {
  cluster : T.resource array;
  config : config;
  map_capacity : int;
  reduce_capacity : int;
  mutable active : job_state list;
  queue : T.job Queue.t;
  mutable deferred : T.job list; (* sorted by earliest_start *)
  mutable current_plan : Dispatch.t list;
  mutable overhead : float;
  mutable max_invocation : float;
  mutable plan_version : int;
  mutable solves : int;
  mutable cache_hits : int;
  mutable scheduled_jobs : int;
  mutable last_stats : Cp.Solver.stats option;
  (* runs every solve; carries the plan, certificate and store between passes *)
  session : Cp.Session.t;
  (* matchmakes every pass, reset first *)
  matchmaker : Matchmaker.t;
  (* manager-level metrics (invocation counts/latency), allocated only when
     [config.solver.instrument] is set *)
  registry : Obs.Metrics.t option;
  (* accumulated snapshots of every solve so far *)
  mutable solver_metrics : Obs.Metrics.snapshot;
  (* Σ N_j of the last installed plan, for the trace's late-job delta *)
  mutable last_late : int;
  (* fault-reaction state: resources currently down, whether a fault
     notification forces the next invocation to re-plan even with an empty
     queue, and how many times a fault reset the session's store and
     certificate *)
  down : (int, unit) Hashtbl.t;
  mutable dirty : bool;
  mutable fault_resets : int;
  (* journal-only bookkeeping (both empty when [config.journal = None]):
     per-job accumulated solver overhead, and the last journaled predicted
     SLA state (true = at risk) per active job *)
  job_overhead : (int, float) Hashtbl.t;
  sla_state : (int, bool) Hashtbl.t;
}

let create ~cluster config =
  if Array.length cluster = 0 then invalid_arg "Manager.create: empty cluster";
  {
    cluster;
    config;
    map_capacity = T.total_map_slots cluster;
    reduce_capacity = T.total_reduce_slots cluster;
    active = [];
    queue = Queue.create ();
    deferred = [];
    current_plan = [];
    overhead = 0.;
    max_invocation = 0.;
    plan_version = 0;
    solves = 0;
    cache_hits = 0;
    scheduled_jobs = 0;
    last_stats = None;
    session = Cp.Session.create ();
    matchmaker = Matchmaker.create ~cluster;
    registry =
      (if config.solver.Cp.Solver.instrument then Some (Obs.Metrics.create ())
       else None);
    solver_metrics = Obs.Metrics.empty;
    last_late = 0;
    down = Hashtbl.create 8;
    dirty = false;
    fault_resets = 0;
    job_overhead = Hashtbl.create 64;
    sla_state = Hashtbl.create 64;
  }

let due ~now t (job : T.job) =
  match t.config.deferral_window with
  | None -> true
  | Some window -> job.T.earliest_start <= now + window

(* One "submit" journal line per admission decision (§V.E): admitted jobs
   enter the work queue now, deferred jobs park until s_j approaches. *)
let journal_submit t ~now (job : T.job) ~admitted =
  match t.config.journal with
  | None -> ()
  | Some j ->
      Obs.Journal.event j ~t_ms:now "submit"
        [
          ("job", Obs.Json.Int job.T.id);
          ("action", Obs.Json.String (if admitted then "admit" else "defer"));
          ( "reason",
            Obs.Json.String
              (if admitted then "within_deferral_window"
               else "starts_beyond_deferral_window") );
          ("est", Obs.Json.Int job.T.earliest_start);
          ("deadline", Obs.Json.Int job.T.deadline);
          ("arrival", Obs.Json.Int job.T.arrival);
        ]

let submit t ~now job =
  let admitted = due ~now t job in
  journal_submit t ~now job ~admitted;
  if admitted then Queue.push job t.queue
  else
    t.deferred <-
      List.merge
        (fun a b -> compare a.T.earliest_start b.T.earliest_start)
        [ job ] t.deferred

let next_wake t =
  match (t.deferred, t.config.deferral_window) with
  | [], _ | _, None -> None
  | job :: _, Some window -> Some (max 0 (job.T.earliest_start - window))

(* Move deferred jobs whose s_j is close enough into the work queue. *)
let release_due t ~now =
  let due_jobs, still = List.partition (due ~now t) t.deferred in
  t.deferred <- still;
  List.iter
    (fun (j : T.job) ->
      (match t.config.journal with
      | None -> ()
      | Some jr ->
          Obs.Journal.event jr ~t_ms:now "submit"
            [
              ("job", Obs.Json.Int j.T.id);
              ("action", Obs.Json.String "release");
              ("reason", Obs.Json.String "deferred_start_now_due");
              ("est", Obs.Json.Int j.T.earliest_start);
              ("deadline", Obs.Json.Int j.T.deadline);
            ]);
      Queue.push j t.queue)
    due_jobs

(* One phase of a job's open tasks, classified by the clock: mark the
   completed ones finished (their finishes fold into the job's [done_*]),
   drop the dispatch of those not started, and return how many are pending
   (no dispatch), how many are running, the latest finish among the
   running ones ([min_int] when none), and whether any finished. *)
let settle_phase ~now ~is_map js (states : task_state array) =
  let pending = ref 0 and running = ref 0 and latest = ref min_int in
  let finished = ref false in
  for i = 0 to Array.length states - 1 do
    let ts = states.(i) in
    match ts.dispatch with
    | Some d when d.Dispatch.start <= now ->
        let finish = Dispatch.finish d in
        if finish <= now then begin
          (* line 14: completed *)
          ts.finished <- true;
          finished := true;
          if is_map && finish > js.done_lfmt then js.done_lfmt <- finish;
          if finish > js.done_completion then js.done_completion <- finish
        end
        else begin
          (* line 11: started but running — freeze *)
          incr running;
          if finish > !latest then latest := finish
        end
    | _ ->
        (* not started: remap and reschedule *)
        ts.dispatch <- None;
        incr pending
  done;
  (!pending, !running, !latest, !finished)

(* [states] without its finished tasks *)
let still_open states =
  let n =
    Array.fold_left (fun n ts -> if ts.finished then n else n + 1) 0 states
  in
  if n = 0 then [||]
  else begin
    let kept = Array.make n states.(0) and k = ref 0 in
    Array.iter
      (fun ts ->
        if not ts.finished then begin
          kept.(!k) <- ts;
          incr k
        end)
      states;
    kept
  end

(* A job's open tasks and [done_*] recomputed from all its tasks. *)
let reopen js =
  js.open_maps <- still_open js.maps;
  js.open_reduces <- still_open js.reduces;
  let latest acc ts =
    match ts.dispatch with
    | Some d when ts.finished -> max acc (Dispatch.finish d)
    | _ -> acc
  in
  js.done_lfmt <- Array.fold_left latest 0 js.maps;
  js.done_completion <- Array.fold_left latest js.done_lfmt js.reduces

(* The phase's pending states into [into] from [off], and its running
   tasks as fixed tasks, each listed last-first: the order every solver
   trajectory has been pinned on. *)
let fill_phase (states : task_state array) ~into ~off ~pending ~running =
  let fixed =
    if running = 0 then [||]
    else Array.make running { Instance.task = states.(0).task; start = 0 }
  in
  let p = ref (off + pending) and f = ref running in
  for i = 0 to Array.length states - 1 do
    let ts = states.(i) in
    if not ts.finished then
      match ts.dispatch with
      | Some d ->
          decr f;
          fixed.(!f) <- { Instance.task = ts.task; start = d.Dispatch.start }
      | None ->
          decr p;
          into.(!p) <- ts
  done;
  fixed

(* Table 2 lines 5–18: classify a job's tasks by the clock.  Returns the
   pending-job view for the CP instance with the states of its pending
   tasks (maps then reduces, in the view's order), or None when the job has
   fully completed (and should leave the system). *)
let classify ~now (js : job_state) =
  let pm, fm, map_running, maps_done =
    settle_phase ~now ~is_map:true js js.open_maps
  in
  let pr, fr, reduce_running, reduces_done =
    settle_phase ~now ~is_map:false js js.open_reduces
  in
  if maps_done then js.open_maps <- still_open js.open_maps;
  if reduces_done then js.open_reduces <- still_open js.open_reduces;
  if pm + fm + pr + fr = 0 then None
  else begin
    js.est <- max js.job.T.earliest_start now;
    (* the latest finish among the started maps, and among all started
       tasks *)
    let lfmt = max js.done_lfmt map_running in
    let completion = max (max js.done_completion lfmt) reduce_running in
    let states =
      if pm > 0 then Array.make (pm + pr) js.open_maps.(0)
      else if pr > 0 then Array.make pr js.open_reduces.(0)
      else [||]
    in
    let fixed_maps =
      fill_phase js.open_maps ~into:states ~off:0 ~pending:pm ~running:fm
    in
    let fixed_reduces =
      fill_phase js.open_reduces ~into:states ~off:pm ~pending:pr ~running:fr
    in
    let tasks off n = Array.init n (fun i -> states.(off + i).task) in
    let pending_maps = tasks 0 pm and pending_reduces = tasks pm pr in
    Some
      ( {
          Instance.job = js.job;
          est = js.est;
          pending_maps;
          pending_reduces;
          fixed_maps;
          fixed_reduces;
          frozen_lfmt = lfmt;
          frozen_completion = completion;
        },
        states )
  end

let iter_open f js =
  Array.iter f js.open_maps;
  Array.iter f js.open_reduces

let iter_tasks f js =
  Array.iter f js.maps;
  Array.iter f js.reduces

(* Plans from consecutive invocations must keep each running task on its slot
   and never double-book a unit slot.  [ests] maps each scheduled job to the
   effective earliest start of this invocation — for a deferred job
   re-entering via [next_wake] that is its s_j bumped up to [now] (possibly
   past its own deadline), which the solution-level oracle alone would only
   check against the instance the solver saw, not against what the
   matchmaker actually dispatched. *)
let validate_plan dispatches frozen ~ests =
  let by_slot = Hashtbl.create 64 in
  let record kind slot start finish task_id =
    let key = (kind, slot) in
    let existing = Option.value (Hashtbl.find_opt by_slot key) ~default:[] in
    List.iter
      (fun (s, f, other) ->
        if start < f && finish > s then
          failwith
            (Printf.sprintf
               "plan validation: tasks %d and %d overlap on %s slot %d"
               task_id other
               (T.task_kind_to_string kind)
               slot))
      existing;
    Hashtbl.replace by_slot key ((start, finish, task_id) :: existing)
  in
  List.iter
    (fun (d : Dispatch.t) ->
      (* a zero-length task occupies no slot time *)
      if d.Dispatch.task.T.exec_time > 0 then
        record d.Dispatch.task.T.kind d.Dispatch.slot d.Dispatch.start
          (Dispatch.finish d) d.Dispatch.task.T.task_id)
    (frozen @ dispatches);
  List.iter
    (fun (d : Dispatch.t) ->
      match Hashtbl.find_opt ests d.Dispatch.task.T.job_id with
      | Some est when d.Dispatch.start < est ->
          failwith
            (Printf.sprintf
               "plan validation: task %d of job %d dispatched at %d before \
                the job's effective earliest start %d"
               d.Dispatch.task.T.task_id d.Dispatch.task.T.job_id
               d.Dispatch.start est)
      | Some _ | None -> ())
    dispatches

(* Capacity over the resources currently up (all of them, absent faults). *)
let up_capacity t select =
  if Hashtbl.length t.down = 0 then
    Array.fold_left (fun acc r -> acc + select r) 0 t.cluster
  else
    Array.fold_left
      (fun acc r ->
        if Hashtbl.mem t.down r.T.res_id then acc else acc + select r)
      0 t.cluster

(* the session's counters, reported per invocation by the journal *)
let session_counters =
  [
    ("appended_jobs", Cp.Session.stats_appended_jobs);
    ("retracted", Cp.Session.stats_retracted);
    ("rebuilds", Cp.Session.stats_rebuilds);
    ("cert_proofs", Cp.Session.stats_cert_proofs);
  ]

let invoke t ~now =
  release_due t ~now;
  if (not (Queue.is_empty t.queue)) || t.dirty then begin
    t.dirty <- false;
    let span_ts = if Obs.Trace.enabled () then Some (Obs.Trace.now_us ()) else None in
    let t0 = Obs.Clock.now () in
    (* absorb the job queue into the active set *)
    let arrived = ref [] in
    Queue.iter
      (fun (job : T.job) ->
        let state task =
          { nominal = task; task; dispatch = None; finished = false }
        in
        let maps = Array.map state job.T.map_tasks
        and reduces = Array.map state job.T.reduce_tasks in
        t.active <-
          {
            job;
            est = max job.T.earliest_start now;
            maps;
            reduces;
            open_maps = maps;
            open_reduces = reduces;
            done_lfmt = 0;
            done_completion = 0;
          }
          :: t.active;
        arrived := job.T.id :: !arrived;
        t.scheduled_jobs <- t.scheduled_jobs + 1)
      t.queue;
    Queue.clear t.queue;
    (* classify tasks, dropping completed jobs (Table 2 l.15–16) *)
    let still_active, pending_jobs, pending_states =
      List.fold_left
        (fun (actives, pjs, states) js ->
          match classify ~now js with
          | None -> (actives, pjs, states)
          | Some (pj, st) -> (js :: actives, pj :: pjs, st :: states))
        ([], [], []) t.active
    in
    t.active <- still_active;
    let map_capacity = up_capacity t (fun r -> r.T.map_capacity)
    and reduce_capacity = up_capacity t (fun r -> r.T.reduce_capacity) in
    if pending_jobs = [] || map_capacity = 0 || reduce_capacity = 0 then begin
      (* a fault notification left nothing pending (e.g. a rejoin with no
         open tasks, or the affected tasks are all still running), or
         every resource of a kind is down, so no pending task can be
         placed: install the trivial empty plan — bumping the version so
         the simulator reconciles away any stale start events — and skip
         the solve.  The jobs stay active; the rejoin that brings capacity
         back marks the manager dirty, and its pass plans them. *)
      (* not a scheduling pass: no solve ran and no "invoke" journal line is
         written, so the O bookkeeping skips it too — the audit tool's
         Σ elapsed over journaled invokes must equal the run-end total *)
      t.current_plan <- [];
      t.plan_version <- t.plan_version + 1
    end
    else begin
    let inst =
      Instance.make ~now ~map_capacity ~reduce_capacity
        (Array.of_list pending_jobs)
    in
    (* the pending tasks' states by the instance's task index *)
    let states = Array.concat pending_states in
    let t_classified = Obs.Clock.now () in
    (* lines 19–20: generate and solve the model; the session warm-starts
       it from what survives of the plan it returned last *)
    (* session counters before the solve, so the journal can report this
       invocation's store-diff work as deltas *)
    let sess_before =
      match t.config.journal with
      | None -> []
      | Some _ -> List.map (fun (_, count) -> count t.session) session_counters
    in
    let solution, stats =
      Cp.Session.solve t.session ~options:t.config.solver inst
    in
    let t_solved = Obs.Clock.now () in
    (* plan cache hit: the carried plan, completed around the new arrivals,
       was still feasible and already met the lower bound, so the solver
       adopted it and returned straight from the fast path — no model was
       built, no search ran (nodes = 0) *)
    let cache_hit =
      stats.Cp.Solver.warm_seeded
      && stats.Cp.Solver.seed_late <= stats.Cp.Solver.lower_bound
    in
    if cache_hit then begin
      t.cache_hits <- t.cache_hits + 1;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~cat:"manager" "plan-cache-hit"
          ~args:[ ("late", Obs.Trace.Int solution.Solution.late_jobs) ]
    end;
    t.last_stats <- Some stats;
    t.solves <- t.solves + 1;
    if t.config.validate then begin
      match Solution.feasibility_errors inst solution with
      | [] -> ()
      | errs ->
          failwith ("MRCP-RM solver produced infeasible solution: "
                    ^ String.concat "; " errs)
    end;
    (* lines 21–22 + §V.D: extract starts, matchmake onto resources.  Slot
       numbering always follows the full cluster — crashed resources keep
       their slot ids but are excluded from assignment — so frozen tasks on
       surviving resources stay on the slots they already hold. *)
    let mm = t.matchmaker in
    Matchmaker.reset mm;
    if Hashtbl.length t.down > 0 then
      Hashtbl.fold (fun rid () acc -> rid :: acc) t.down []
      |> List.sort compare
      |> List.iter (fun resource_id -> Matchmaker.disable_resource mm ~resource_id);
    let frozen_dispatches = ref [] in
    let validate = t.config.validate in
    List.iter
      (iter_open (fun ts ->
           if not ts.finished then
             match ts.dispatch with
             | Some d ->
                 (* running task keeps its slot *)
                 Matchmaker.occupy mm ~kind:ts.task.T.kind
                   ~slot:d.Dispatch.slot ~until:(Dispatch.finish d);
                 if validate then frozen_dispatches := d :: !frozen_dispatches
             | None -> ()))
      t.active;
    (* install the new plan on the task states it was made for as it is
       matchmade *)
    let dispatches =
      Matchmaker.assign_all mm ~starts:solution.Solution.starts
        ~tasks:(Array.map (fun ts -> ts.task) states)
        ~on_assign:(fun k d -> states.(k).dispatch <- Some d)
    in
    if t.config.validate then begin
      let ests = Hashtbl.create 64 in
      List.iter
        (fun (pj : Instance.pending_job) ->
          Hashtbl.replace ests pj.Instance.job.T.id pj.Instance.est)
        pending_jobs;
      validate_plan dispatches !frozen_dispatches ~ests
    end;
    let prev_plan = t.current_plan in
    (* already in [Dispatch.compare_by_start] order *)
    t.current_plan <- dispatches;
    t.plan_version <- t.plan_version + 1;
    let t_installed = Obs.Clock.now () in
    let elapsed = t_installed -. t0 in
    if elapsed > t.max_invocation then t.max_invocation <- elapsed;
    t.overhead <- t.overhead +. elapsed;
    let late = solution.Solution.late_jobs in
    (match t.registry with
    | Some r ->
        Obs.Metrics.add (Obs.Metrics.counter r "manager/invocations") 1;
        if cache_hit then
          Obs.Metrics.add (Obs.Metrics.counter r "manager/plan_cache_hits") 1;
        Obs.Metrics.observe (Obs.Metrics.histogram r "manager/invoke_s") elapsed;
        Obs.Metrics.set_gauge (Obs.Metrics.gauge r "manager/late_jobs")
          (float_of_int late);
        t.solver_metrics <-
          Obs.Metrics.merge t.solver_metrics (Obs.Solve_stats.to_metrics stats)
    | None -> ());
    (match span_ts with
    | Some ts ->
        Obs.Trace.complete ~cat:"manager" ~ts "invoke"
          ~args:
            [
              ("now_ms", Obs.Trace.Int now);
              ("active_jobs", Obs.Trace.Int (List.length t.active));
              ( "pending_tasks",
                Obs.Trace.Int (Sched.Instance.pending_task_count inst) );
              ("late_jobs", Obs.Trace.Int late);
              ("late_delta", Obs.Trace.Int (late - t.last_late));
              ("cache_hit", Obs.Trace.Int (if cache_hit then 1 else 0));
            ];
        Obs.Trace.instant ~cat:"solver" "stop-reason"
          ~args:
            [
              ( "reason",
                Obs.Trace.Str
                  (Obs.Solve_stats.stop_reason_to_string
                     stats.Cp.Solver.stop_reason) );
            ]
    | None -> ());
    (match t.config.journal with
    | None -> ()
    | Some j ->
        (* every job active in this invocation shares its wall-clock cost:
           O is a per-run scalar in the paper, but lateness attribution
           needs the per-job share (§V.E of the audit design) *)
        List.iter
          (fun js ->
            let id = js.job.T.id in
            let cur =
              Option.value (Hashtbl.find_opt t.job_overhead id) ~default:0.
            in
            Hashtbl.replace t.job_overhead id (cur +. elapsed))
          t.active;
        let session_delta =
          Obs.Json.Obj
            (List.map2
               (fun (name, count) before ->
                 (name, Obs.Json.Int (count t.session - before)))
               session_counters sess_before)
        in
        (* plan diff against the previously installed plan, by task id *)
        let old_by_task = Hashtbl.create 64 in
        List.iter
          (fun (d : Dispatch.t) ->
            Hashtbl.replace old_by_task d.Dispatch.task.T.task_id d)
          prev_plan;
        let kept = ref 0 and moved = ref 0 and added = ref 0 in
        List.iter
          (fun (d : Dispatch.t) ->
            match Hashtbl.find_opt old_by_task d.Dispatch.task.T.task_id with
            | Some od ->
                Hashtbl.remove old_by_task d.Dispatch.task.T.task_id;
                if od = d then incr kept else incr moved
            | None -> incr added)
          t.current_plan;
        let removed = Hashtbl.length old_by_task in
        Obs.Journal.event j ~t_ms:now "invoke"
          ~wall:
            [
              ("elapsed_s", Obs.Json.Float elapsed);
              ("classify_s", Obs.Json.Float (t_classified -. t0));
              ("seed_s", Obs.Json.Float stats.Cp.Solver.seed_s);
              ("bound_s", Obs.Json.Float stats.Cp.Solver.bound_s);
              ("warm_s", Obs.Json.Float stats.Cp.Solver.warm_s);
              ("list_s", Obs.Json.Float stats.Cp.Solver.list_s);
              ("sync_s", Obs.Json.Float stats.Cp.Solver.sync_s);
              ("search_s", Obs.Json.Float stats.Cp.Solver.search_s);
              ("match_s", Obs.Json.Float (t_installed -. t_solved));
            ]
          ([
             ("invocation", Obs.Json.Int (t.solves - 1));
             ( "arrived",
               Obs.Json.List (List.rev_map (fun i -> Obs.Json.Int i) !arrived)
             );
             ("active_jobs", Obs.Json.Int (List.length t.active));
             ( "pending_tasks",
               Obs.Json.Int (Sched.Instance.pending_task_count inst) );
             ("late", Obs.Json.Int late);
             ("late_delta", Obs.Json.Int (late - t.last_late));
             ("cache_hit", Obs.Json.Bool cache_hit);
             ("plan_version", Obs.Json.Int t.plan_version);
             ( "solve",
               Obs.Json.Obj
                 [
                   ( "stop_reason",
                     Obs.Json.String
                       (Obs.Solve_stats.stop_reason_to_string
                          stats.Cp.Solver.stop_reason) );
                   ("seed_late", Obs.Json.Int stats.Cp.Solver.seed_late);
                   ("lower_bound", Obs.Json.Int stats.Cp.Solver.lower_bound);
                   ("proved", Obs.Json.Bool stats.Cp.Solver.proved_optimal);
                   ("warm_seeded", Obs.Json.Bool stats.Cp.Solver.warm_seeded);
                   ("nodes", Obs.Json.Int stats.Cp.Solver.nodes);
                   ("failures", Obs.Json.Int stats.Cp.Solver.failures);
                   ("lns_moves", Obs.Json.Int stats.Cp.Solver.lns_moves);
                 ] );
             ( "plan",
               Obs.Json.Obj
                 [
                   ("kept", Obs.Json.Int !kept);
                   ("moved", Obs.Json.Int !moved);
                   ("added", Obs.Json.Int !added);
                   ("removed", Obs.Json.Int removed);
                 ] );
             ("session", session_delta);
           ]);
        (* predicted SLA state per active job: at risk when the installed
           plan already finishes it past d_j.  One "sla" line per transition
           (and for the initial state only when it is already at_risk). *)
        List.iter
          (fun js ->
            let planned = ref true and last = ref 0 in
            iter_tasks
              (fun ts ->
                match ts.dispatch with
                | Some d -> last := max !last (Dispatch.finish d)
                | None -> planned := false)
              js;
            match if !planned then Some !last else None with
            | None -> () (* not fully planned; keep the previous state *)
            | Some completion ->
                let at_risk = completion > js.job.T.deadline in
                let prev = Hashtbl.find_opt t.sla_state js.job.T.id in
                let state b = if b then "at_risk" else "on_time" in
                (match prev with
                | Some p when p = at_risk -> ()
                | Some p ->
                    Obs.Journal.event j ~t_ms:now "sla"
                      [
                        ("job", Obs.Json.Int js.job.T.id);
                        ("from", Obs.Json.String (state p));
                        ("to", Obs.Json.String (state at_risk));
                        ("predicted_completion", Obs.Json.Int completion);
                        ("deadline", Obs.Json.Int js.job.T.deadline);
                      ]
                | None ->
                    if at_risk then
                      Obs.Journal.event j ~t_ms:now "sla"
                        [
                          ("job", Obs.Json.Int js.job.T.id);
                          ("from", Obs.Json.String "on_time");
                          ("to", Obs.Json.String "at_risk");
                          ("predicted_completion", Obs.Json.Int completion);
                          ("deadline", Obs.Json.Int js.job.T.deadline);
                        ]);
                Hashtbl.replace t.sla_state js.job.T.id at_risk)
          t.active);
    t.last_late <- late;
    Log.debug (fun m ->
        m
          "invocation at %d: %d active jobs, %d pending tasks planned, %a, %.4fs"
          now (List.length t.active) (List.length dispatches)
          (Fmt.option Cp.Solver.pp_stats)
          t.last_stats elapsed)
    end
  end

(* --- fault reactions (driven by the simulator's chaos events) ------------ *)

let find_task_state t task_id =
  let hit = ref None in
  List.iter
    (fun js ->
      if !hit = None then begin
        let scan ts =
          if ts.task.T.task_id = task_id then hit := Some (js, ts)
        in
        Array.iter scan js.maps;
        Array.iter scan js.reduces
      end)
    t.active;
  !hit

(* Any fault invalidates the session's store and its carried optimality
   certificate ({!Cp.Session.reset}); the plan it keeps still seeds the next
   solve. *)
let reset_session t =
  Cp.Session.reset t.session;
  t.fault_resets <- t.fault_resets + 1;
  t.dirty <- true

(* The attempt is gone: forget its dispatch and any straggler-inflated
   execution time so the task re-enters the next instance as freshly pending
   (classify will bump its effective est up to now). *)
let requeue_task (js, ts) =
  let was_finished = ts.finished in
  ts.dispatch <- None;
  ts.finished <- false;
  ts.task <- ts.nominal;
  (* a finished task has left the open ones: bring it back *)
  if was_finished then reopen js

let resource_lost t ~now:_ ~resource_id ~lost =
  Hashtbl.replace t.down resource_id ();
  List.iter
    (fun id ->
      match find_task_state t id with
      | Some hit -> requeue_task hit
      | None -> ())
    lost;
  reset_session t

let resource_rejoined t ~now:_ ~resource_id =
  Hashtbl.remove t.down resource_id;
  reset_session t

let task_attempt_failed t ~now:_ ~task_id =
  (match find_task_state t task_id with
  | Some hit -> requeue_task hit
  | None -> ());
  reset_session t

let task_started t ~now:_ ~task_id ~exec_ms =
  match find_task_state t task_id with
  | None -> ()
  | Some (_, ts) ->
      if ts.task.T.exec_time <> exec_ms then begin
        ts.task <- { ts.task with T.exec_time = exec_ms };
        (match ts.dispatch with
        | Some d -> ts.dispatch <- Some { d with Dispatch.task = ts.task }
        | None -> ());
        reset_session t
      end

let fault_resets t = t.fault_resets
let resources_down t = Hashtbl.length t.down

let plan t = t.current_plan
let plan_version t = t.plan_version
let active_jobs t = List.length t.active
let overhead_seconds t = t.overhead
let max_invocation_seconds t = t.max_invocation

let job_overhead_seconds t id =
  match Hashtbl.find_opt t.job_overhead id with Some v -> v | None -> 0.
let solve_count t = t.solves
let cache_hit_count t = t.cache_hits
let jobs_scheduled t = t.scheduled_jobs
let last_solver_stats t = t.last_stats

let metrics t =
  match t.registry with
  | None -> None
  | Some r -> Some (Obs.Metrics.merge (Obs.Metrics.snapshot r) t.solver_metrics)
