module T = Mapreduce.Types

type instance = {
  map_capacity : int;
  reduce_capacity : int;
  jobs : Dag.t array;
}

type solution = {
  starts : (int, int) Hashtbl.t;
  late_jobs : int;
  total_tardiness : int;
}

let stage_completion starts (s : Dag.stage) =
  Array.fold_left
    (fun acc (t : T.task) ->
      acc |> max (Hashtbl.find starts t.T.task_id + t.T.exec_time))
    0 s.Dag.tasks

let job_completion starts (w : Dag.t) =
  Array.fold_left
    (fun acc s -> max acc (stage_completion starts s))
    w.Dag.earliest_start w.Dag.stages

let evaluate inst starts =
  let late = ref 0 and tardiness = ref 0 in
  Array.iter
    (fun (w : Dag.t) ->
      let over = job_completion starts w - w.Dag.deadline in
      if over > 0 then begin
        incr late;
        tardiness := !tardiness + over
      end)
    inst.jobs;
  { starts; late_jobs = !late; total_tardiness = !tardiness }

let greedy inst =
  let map_profile = Sched.Profile.create ~capacity:inst.map_capacity in
  let reduce_profile = Sched.Profile.create ~capacity:inst.reduce_capacity in
  let profile_of = function
    | T.Map_task -> map_profile
    | T.Reduce_task -> reduce_profile
  in
  let starts = Hashtbl.create 256 in
  let jobs = Array.copy inst.jobs in
  Array.sort (fun (a : Dag.t) b -> compare (a.Dag.deadline, a.Dag.id) (b.Dag.deadline, b.Dag.id)) jobs;
  Array.iter
    (fun (w : Dag.t) ->
      let order = Dag.topological_order w in
      let stage_end = Hashtbl.create 8 in
      Array.iter
        (fun sid ->
          let s = Dag.stage w sid in
          let floor =
            List.fold_left
              (fun acc p -> max acc (Hashtbl.find stage_end p))
              w.Dag.earliest_start (Dag.predecessors w sid)
          in
          let profile = profile_of s.Dag.pool in
          let tasks = Array.copy s.Dag.tasks in
          Array.sort
            (fun (a : T.task) b ->
              compare (b.T.exec_time, a.T.task_id) (a.T.exec_time, b.T.task_id))
            tasks;
          let finish = ref floor in
          Array.iter
            (fun (t : T.task) ->
              let start =
                Sched.Profile.earliest_fit profile ~from:floor
                  ~duration:t.T.exec_time ~amount:t.T.capacity_req
              in
              Sched.Profile.add profile ~start ~duration:t.T.exec_time
                ~amount:t.T.capacity_req;
              Hashtbl.replace starts t.T.task_id start;
              if start + t.T.exec_time > !finish then
                finish := start + t.T.exec_time)
            tasks;
          Hashtbl.replace stage_end sid !finish)
        order)
    jobs;
  evaluate inst starts

let lower_bound inst =
  Array.fold_left
    (fun acc (w : Dag.t) ->
      if w.Dag.earliest_start + Dag.critical_path w > w.Dag.deadline then
        acc + 1
      else acc)
    0 inst.jobs

let feasibility_errors inst sol =
  let errors = ref [] in
  let error fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let map_profile = Sched.Profile.create ~capacity:inst.map_capacity in
  let reduce_profile = Sched.Profile.create ~capacity:inst.reduce_capacity in
  let profile_of = function
    | T.Map_task -> map_profile
    | T.Reduce_task -> reduce_profile
  in
  Array.iter
    (fun (w : Dag.t) ->
      let missing = ref false in
      Dag.all_tasks w
      |> List.iter (fun (t : T.task) ->
             if not (Hashtbl.mem sol.starts t.T.task_id) then begin
               missing := true;
               error "task %d of workflow %d has no start" t.T.task_id w.Dag.id
             end);
      if not !missing then begin
        Array.iter
          (fun (s : Dag.stage) ->
            let preds = Dag.predecessors w s.Dag.stage_id in
            let floor =
              List.fold_left
                (fun acc p -> max acc (stage_completion sol.starts (Dag.stage w p)))
                w.Dag.earliest_start preds
            in
            Array.iter
              (fun (t : T.task) ->
                let start = Hashtbl.find sol.starts t.T.task_id in
                if start < floor then
                  error
                    "task %d (stage %d, workflow %d) starts at %d before \
                     floor %d"
                    t.T.task_id s.Dag.stage_id w.Dag.id start floor;
                let profile = profile_of s.Dag.pool in
                if
                  not
                    (Sched.Profile.fits profile ~start ~duration:t.T.exec_time
                       ~amount:t.T.capacity_req)
                then
                  error "capacity violated by task %d (workflow %d)"
                    t.T.task_id w.Dag.id;
                Sched.Profile.add profile ~start ~duration:t.T.exec_time
                  ~amount:t.T.capacity_req)
              s.Dag.tasks)
          w.Dag.stages
      end)
    inst.jobs;
  let recomputed = evaluate inst sol.starts in
  if recomputed.late_jobs <> sol.late_jobs then
    error "late count %d does not match recomputed %d" sol.late_jobs
      recomputed.late_jobs;
  List.rev !errors

type stats = Obs.Solve_stats.t = {
  seed_late : int;
  lower_bound : int;
  proved_optimal : bool;
  warm_seeded : bool;
  stop_reason : Obs.Solve_stats.stop_reason;
  nodes : int;
  failures : int;
  lns_moves : int;
  elapsed : float;
  seed_s : float;
  search_s : float;
  metrics : Obs.Metrics.snapshot option;
}

(* CP model: the Table-1 formulation with arbitrary stage precedence. *)
let build_problem inst ~bound_init =
  let store = Cp.Store.create () in
  (* big enough for any semi-active schedule: latest release plus the whole
     batch run serially *)
  let max_est, total_work =
    Array.fold_left
      (fun (est, work) (w : Dag.t) ->
        ( max est w.Dag.earliest_start,
          work
          + List.fold_left (fun a (t : T.task) -> a + t.T.exec_time) 0
              (Dag.all_tasks w) ))
      (0, 0) inst.jobs
  in
  let horizon = max_est + total_work + 1 in
  let start_infos = ref [] in
  let task_vars = ref [] in
  let map_terms = ref [] and reduce_terms = ref [] in
  let lates = ref [] in
  Array.iter
    (fun (w : Dag.t) ->
      let est = w.Dag.earliest_start in
      (* stage completion variables, created in topological order so that
         precedence floors propagate through initial bounds *)
      let completions = Hashtbl.create 8 in
      Array.iter
        (fun sid ->
          let s = Dag.stage w sid in
          let completion = Cp.Store.new_var store ~min:est ~max:(2 * horizon) in
          let terms = ref [] in
          Array.iter
            (fun (t : T.task) ->
              let var = Cp.Store.new_var store ~min:est ~max:horizon in
              start_infos :=
                {
                  Cp.Search.svar = var;
                  duration = t.T.exec_time;
                  deadline = w.Dag.deadline;
                }
                :: !start_infos;
              task_vars := (t.T.task_id, var) :: !task_vars;
              (* precedence: after every predecessor stage *)
              List.iter
                (fun p ->
                  Cp.Propagators.ge_offset store var (Hashtbl.find completions p) 0)
                (Dag.predecessors w sid);
              terms := (var, t.T.exec_time) :: !terms;
              let bucket =
                match s.Dag.pool with
                | T.Map_task -> map_terms
                | T.Reduce_task -> reduce_terms
              in
              bucket :=
                { Cp.Propagators.start = var;
                  duration = t.T.exec_time;
                  demand = t.T.capacity_req }
                :: !bucket)
            s.Dag.tasks;
          Cp.Propagators.max_of store ~result:completion ~terms:!terms
            ~floor:est;
          Hashtbl.replace completions sid completion)
        (Dag.topological_order w);
      (* job completion = max over stage completions *)
      let job_completion = Cp.Store.new_var store ~min:est ~max:(2 * horizon) in
      Cp.Propagators.max_of store ~result:job_completion
        ~terms:(Hashtbl.fold (fun _ c acc -> (c, 0) :: acc) completions [])
        ~floor:est;
      let late = Cp.Store.new_var store ~min:0 ~max:1 in
      Cp.Propagators.lateness store ~late ~completion:job_completion
        ~deadline:w.Dag.deadline;
      lates := (late, w.Dag.deadline) :: !lates)
    inst.jobs;
  Cp.Propagators.cumulative store
    ~tasks:(Array.of_list !map_terms)
    ~fixed:[||] ~capacity:inst.map_capacity;
  Cp.Propagators.cumulative store
    ~tasks:(Array.of_list !reduce_terms)
    ~fixed:[||] ~capacity:inst.reduce_capacity;
  let bound = ref bound_init in
  let late_vars = Array.of_list (List.rev_map fst !lates) in
  let bound_pid = Cp.Propagators.sum_lt_bound store ~vars:late_vars ~bound in
  let task_vars = !task_vars in
  {
    Cp.Search.store;
    starts = Array.of_list (List.rev !start_infos);
    lates = Array.of_list (List.rev !lates);
    bound;
    bound_pid;
    extract =
      (fun () ->
        let starts = Hashtbl.create 256 in
        List.iter
          (fun (task_id, var) ->
            Hashtbl.replace starts task_id (Cp.Store.value store var))
          task_vars;
        let sol = evaluate inst starts in
        (sol, sol.late_jobs));
  }

let solve ?(limits = Cp.Search.no_limits) ?(instrument = false) inst =
  let t0 = Obs.Clock.now () in
  let registry = if instrument then Some (Obs.Metrics.create ()) else None in
  let seed = greedy inst in
  let lb = lower_bound inst in
  let t_search = Obs.Clock.now () in
  let best, proved, stop_reason, nodes, failures =
    if seed.late_jobs <= lb then (seed, true, Obs.Solve_stats.Proved, 0, 0)
    else begin
      let problem = build_problem inst ~bound_init:seed.late_jobs in
      if instrument then Cp.Store.set_instrumented problem.Cp.Search.store true;
      let o = Cp.Search.run_problem problem limits in
      (* the MapReduce solves' metric names, so both merge into one
         propagator table *)
      Option.iter
        (fun r -> Cp.Store.harvest r problem.Cp.Search.store)
        registry;
      ( Option.value o.Cp.Search.best ~default:seed,
        o.Cp.Search.proved_optimal,
        Cp.Search.stop_reason_of_cause o.Cp.Search.stopped,
        o.Cp.Search.nodes,
        o.Cp.Search.failures )
    end
  in
  ( best,
    {
      seed_late = seed.late_jobs;
      lower_bound = lb;
      proved_optimal = proved;
      warm_seeded = false;
      stop_reason;
      nodes;
      failures;
      lns_moves = 0;
      elapsed = Obs.Clock.now () -. t0;
      seed_s = t_search -. t0;
      search_s = Obs.Clock.now () -. t_search;
      metrics = Option.map Obs.Metrics.snapshot registry;
    } )
