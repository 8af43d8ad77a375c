(* Using the CP solver library directly, without the resource manager or the
   simulator: model a small batch matchmaking-and-scheduling problem
   (Table 1 of the paper) and inspect the solution and search statistics.
   This is the "closed system" usage mode from the paper's §III/IV: a fixed
   batch of jobs, one solve (then the same solve again, on the session
   that keeps the first one's store and proof).

   Run with:  dune exec examples/solver_playground.exe *)

module T = Mapreduce.Types

let task_id = ref 0

let task ~job ~kind ~e =
  incr task_id;
  { T.task_id = !task_id; job_id = job; kind; exec_time = e; capacity_req = 1 }

let job ~id ~est ~deadline ~maps ~reduces =
  {
    T.id;
    arrival = 0;
    earliest_start = est;
    deadline;
    map_tasks =
      Array.of_list (List.map (fun e -> task ~job:id ~kind:T.Map_task ~e) maps);
    reduce_tasks =
      Array.of_list
        (List.map (fun e -> task ~job:id ~kind:T.Reduce_task ~e) reduces);
  }

let print_schedule inst (solution : Sched.Solution.t) =
  Array.iteri
    (fun jdx (pj : Sched.Instance.pending_job) ->
      let j = pj.Sched.Instance.job in
      let completion =
        Sched.Solution.job_completion inst jdx solution.Sched.Solution.starts
      in
      Format.printf "job %d (est=%d, deadline=%d): completes at %d -> %s@."
        j.T.id pj.Sched.Instance.est j.T.deadline completion
        (if completion > j.T.deadline then "LATE" else "on time");
      let show (t : T.task) =
        let s = Sched.Solution.start_of inst solution ~task_id:t.T.task_id in
        Format.printf "    %s task %d: [%d, %d)@."
          (T.task_kind_to_string t.T.kind)
          t.T.task_id s (s + t.T.exec_time)
      in
      Array.iter show pj.Sched.Instance.pending_maps;
      Array.iter show pj.Sched.Instance.pending_reduces)
    inst.Sched.Instance.jobs

let () =
  (* A deliberately contended batch: 3 jobs on a single (2 map, 1 reduce)
     resource.  The reduce slot is oversubscribed, so one job must be late;
     the exact branch-and-bound proves that the greedy answer (1 late job)
     is in fact optimal. *)
  let jobs =
    [
      job ~id:0 ~est:0 ~deadline:100 ~maps:[ 30; 30 ] ~reduces:[ 40 ];
      job ~id:1 ~est:0 ~deadline:95 ~maps:[ 25 ] ~reduces:[ 35 ];
      job ~id:2 ~est:10 ~deadline:120 ~maps:[ 20; 20 ] ~reduces:[ 30 ];
    ]
  in
  let inst =
    Sched.Instance.of_fresh_jobs ~now:0 ~map_capacity:2 ~reduce_capacity:1 jobs
  in
  Format.printf "instance: %a@.@." Sched.Instance.pp inst;

  (* 1. greedy list schedules, the solver's seeds *)
  List.iter
    (fun order ->
      let g = Sched.Greedy.solve ~order inst in
      Format.printf "greedy %-12s -> %a@."
        (Sched.Greedy.order_to_string order)
        Sched.Solution.pp g)
    [ Sched.Greedy.By_job_id; Sched.Greedy.Edf; Sched.Greedy.Least_laxity ];

  (* 2. the full CP solve (seed + lower bound + exact branch-and-bound),
        through a solver session: the one model the manager re-solves at
        every invocation *)
  let session = Cp.Session.create () in
  let options = Cp.Solver.default_options in
  let solution, stats = Cp.Session.solve session ~options inst in
  Format.printf "@.cp solver  -> %a@." Sched.Solution.pp solution;
  Format.printf "           %a@.@." Cp.Solver.pp_stats stats;
  print_schedule inst solution;

  (* 3. the solution passes the paper's Table-1 constraint oracle *)
  (match Sched.Solution.feasibility_errors inst solution with
  | [] -> Format.printf "@.feasibility oracle: all Table-1 constraints hold@."
  | errs ->
      Format.printf "@.feasibility oracle found violations:@.";
      List.iter (Format.printf "  %s@.") errs);

  (* 4. matchmake the combined schedule onto the physical cluster (§V.D)
        and draw it *)
  let cluster =
    T.uniform_cluster ~m:1 ~map_capacity:2 ~reduce_capacity:1
  in
  let mm = Mrcp.Matchmaker.create ~cluster in
  let dispatches =
    Mrcp.Matchmaker.assign_all mm ~starts:solution.Sched.Solution.starts
      ~tasks:(Sched.Instance.pending_tasks inst)
  in
  Format.printf "@.%s@." (Report.Gantt.render ~width:60 dispatches);

  (* 5. solve the same instance again: the session kept its store, the
        plan it returned and the proof, so the second solve adopts the
        plan without searching *)
  let _, again = Cp.Session.solve session ~options inst in
  Format.printf "@.re-solve: %a@." Cp.Solver.pp_stats again;
  Format.printf "session: %d job blocks appended, %d store rebuilds@."
    (Cp.Session.stats_appended_jobs session)
    (Cp.Session.stats_rebuilds session)
