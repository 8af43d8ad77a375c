module T = Mapreduce.Types

type row = {
  jobs : int;
  tasks : int;
  resources : int;
  combined_time_s : float;
  combined_late : int;
  direct_time_s : float;
  direct_late : int option;
  direct_nodes : int;
  direct_optimal : bool;
}

let make_batch ~n ~rng ~task_counter =
  let jobs =
    List.init n (fun id ->
        let fresh kind e =
          incr task_counter;
          {
            T.task_id = !task_counter;
            job_id = id;
            kind;
            exec_time = e;
            capacity_req = 1;
          }
        in
        let maps =
          List.init (2 + Simrand.Rng.int rng 2) (fun _ ->
              fresh T.Map_task (5 + Simrand.Rng.int rng 10))
        in
        let reduces = [ fresh T.Reduce_task (4 + Simrand.Rng.int rng 6) ] in
        let total =
          List.fold_left (fun a (t : T.task) -> a + t.T.exec_time) 0
            (maps @ reduces)
        in
        {
          T.id;
          arrival = 0;
          earliest_start = Simrand.Rng.int rng 10;
          deadline = (total / 2) + 10 + Simrand.Rng.int rng 25;
          map_tasks = Array.of_list maps;
          reduce_tasks = Array.of_list reduces;
        })
  in
  jobs

let run ?(sizes = [ 2; 4; 6; 8 ]) ?(m = 4) ?(direct_budget = 5.) ?(seed = 23)
    () =
  let cluster = T.uniform_cluster ~m ~map_capacity:1 ~reduce_capacity:1 in
  let task_counter = ref 0 in
  List.map
    (fun n ->
      let rng = Simrand.Rng.create (seed + n) in
      let jobs = make_batch ~n ~rng ~task_counter in
      let inst =
        Sched.Instance.of_fresh_jobs ~now:0
          ~map_capacity:(T.total_map_slots cluster)
          ~reduce_capacity:(T.total_reduce_slots cluster)
          jobs
      in
      (* combined pipeline: CP solve on the aggregate + matchmaking *)
      let t0 = Obs.Clock.now () in
      let solution, _ = Cp.Solver.solve inst in
      let mm = Mrcp.Matchmaker.create ~cluster in
      let _ =
        Mrcp.Matchmaker.assign_all mm ~starts:solution.Sched.Solution.starts
          ~tasks:(Sched.Instance.pending_tasks inst)
      in
      let combined_time_s = Obs.Clock.now () -. t0 in
      (* direct formulation *)
      let limits =
        {
          Cp.Search.no_limits with
          Cp.Search.wall_deadline =
            Some (Obs.Clock.now () +. direct_budget);
        }
      in
      let direct, dstats = Cp.Direct.solve ~limits ~cluster inst in
      {
        jobs = n;
        tasks = Sched.Instance.pending_task_count inst;
        resources = m;
        combined_time_s;
        combined_late = solution.Sched.Solution.late_jobs;
        direct_time_s = dstats.Cp.Direct.elapsed;
        direct_late =
          Option.map
            (fun (a : Cp.Direct.assignment) ->
              a.Cp.Direct.solution.Sched.Solution.late_jobs)
            direct;
        direct_nodes = dstats.Cp.Direct.nodes;
        direct_optimal = dstats.Cp.Direct.proved_optimal;
      })
    sizes

let headers =
  [
    "jobs"; "tasks"; "m"; "combined time"; "combined late"; "direct time";
    "direct late"; "direct nodes"; "direct opt";
  ]

let rows_of rows =
  List.map
    (fun r ->
      [
        string_of_int r.jobs;
        string_of_int r.tasks;
        string_of_int r.resources;
        Report.Table.fmt_seconds r.combined_time_s;
        string_of_int r.combined_late;
        Report.Table.fmt_seconds r.direct_time_s;
        (match r.direct_late with Some l -> string_of_int l | None -> "-");
        string_of_int r.direct_nodes;
        string_of_bool r.direct_optimal;
      ])
    rows

let render rows =
  Report.Table.render
    ~title:
      "Ablation: §V.D decomposition (combined solve + matchmaking) vs the \
       direct per-resource CP model"
    ~headers ~rows:(rows_of rows) ()

let to_csv rows = Report.Table.csv ~headers ~rows:(rows_of rows)
