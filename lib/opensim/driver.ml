type reaction =
  | Full_plan of Sched.Dispatch.t list
  | Launch of Sched.Dispatch.t list
  | No_change

type t = {
  name : string;
  submit : now:int -> Mapreduce.Types.job -> unit;
  task_completed : now:int -> task_id:int -> unit;
  task_started : now:int -> task_id:int -> exec_ms:int -> unit;
  task_attempt_failed : now:int -> task_id:int -> unit;
  resource_lost : now:int -> resource_id:int -> lost:int list -> unit;
  resource_rejoined : now:int -> resource_id:int -> unit;
  react : now:int -> reaction;
  next_wake : now:int -> int option;
  overhead_seconds : unit -> float;
  max_invocation_seconds : unit -> float;
  job_overhead_seconds : int -> float;
  solve_count : unit -> int;
  metrics : unit -> Obs.Metrics.snapshot option;
  description : string;
}

let of_mrcp mgr =
  {
    name = "mrcp-rm";
    submit = (fun ~now job -> Mrcp.Manager.submit mgr ~now job);
    task_completed = (fun ~now:_ ~task_id:_ -> ());
    task_started =
      (fun ~now ~task_id ~exec_ms ->
        Mrcp.Manager.task_started mgr ~now ~task_id ~exec_ms);
    task_attempt_failed =
      (fun ~now ~task_id -> Mrcp.Manager.task_attempt_failed mgr ~now ~task_id);
    resource_lost =
      (fun ~now ~resource_id ~lost ->
        Mrcp.Manager.resource_lost mgr ~now ~resource_id ~lost);
    resource_rejoined =
      (fun ~now ~resource_id ->
        Mrcp.Manager.resource_rejoined mgr ~now ~resource_id);
    react =
      (let last_version = ref (-1) in
       fun ~now ->
         Mrcp.Manager.invoke mgr ~now;
         let version = Mrcp.Manager.plan_version mgr in
         if version = !last_version then No_change
         else begin
           last_version := version;
           Full_plan (Mrcp.Manager.plan mgr)
         end);
    next_wake = (fun ~now:_ -> Mrcp.Manager.next_wake mgr);
    overhead_seconds = (fun () -> Mrcp.Manager.overhead_seconds mgr);
    max_invocation_seconds =
      (fun () -> Mrcp.Manager.max_invocation_seconds mgr);
    job_overhead_seconds = (fun id -> Mrcp.Manager.job_overhead_seconds mgr id);
    solve_count = (fun () -> Mrcp.Manager.solve_count mgr);
    metrics = (fun () -> Mrcp.Manager.metrics mgr);
    description =
      "CP-based matchmaking and scheduling (paper Table 2), re-planning \
       unstarted tasks at every arrival";
  }

let of_slot_scheduler sched =
  {
    name =
      Baselines.Slot_scheduler.policy_to_string
        (Baselines.Slot_scheduler.policy sched);
    submit = (fun ~now job -> Baselines.Slot_scheduler.submit sched ~now job);
    task_completed =
      (fun ~now ~task_id ->
        Baselines.Slot_scheduler.task_completed sched ~now ~task_id);
    task_started = (fun ~now:_ ~task_id:_ ~exec_ms:_ -> ());
    task_attempt_failed =
      (fun ~now ~task_id ->
        Baselines.Slot_scheduler.task_attempt_failed sched ~now ~task_id);
    resource_lost =
      (fun ~now ~resource_id ~lost ->
        Baselines.Slot_scheduler.resource_lost sched ~now ~resource_id ~lost);
    resource_rejoined =
      (fun ~now ~resource_id ->
        Baselines.Slot_scheduler.resource_rejoined sched ~now ~resource_id);
    react = (fun ~now -> Launch (Baselines.Slot_scheduler.dispatches sched ~now));
    next_wake = (fun ~now:_ -> Baselines.Slot_scheduler.next_wake sched);
    overhead_seconds =
      (fun () -> Baselines.Slot_scheduler.overhead_seconds sched);
    max_invocation_seconds = (fun () -> 0.);
    job_overhead_seconds = (fun _ -> 0.);
    solve_count = (fun () -> 0);
    metrics = (fun () -> None);
    description = "slot-based dynamic scheduler";
  }

type kind = Mrcp_rm | Min_edf_wc | Edf_wc | Fcfs_wc | Greedy_only

let kinds =
  [
    ("mrcp-rm", Mrcp_rm);
    ("minedf-wc", Min_edf_wc);
    ("edf-wc", Edf_wc);
    ("fcfs-wc", Fcfs_wc);
    ("greedy-only", Greedy_only);
  ]

let kind_to_string kind = fst (List.find (fun (_, k) -> k = kind) kinds)
let kind_of_string name = List.assoc_opt name kinds

let plan_based = function
  | Mrcp_rm | Greedy_only -> true
  | Min_edf_wc | Edf_wc | Fcfs_wc -> false

let make kind ~cluster (config : Mrcp.Manager.config) =
  let slot_scheduler policy =
    of_slot_scheduler (Baselines.Slot_scheduler.create ~cluster ~policy)
  in
  match kind with
  | Mrcp_rm -> of_mrcp (Mrcp.Manager.create ~cluster config)
  | Greedy_only ->
      let solver =
        { config.Mrcp.Manager.solver with Cp.Solver.exact_task_limit = 0 }
      in
      let mgr = Mrcp.Manager.create ~cluster { config with solver } in
      { (of_mrcp mgr) with name = kind_to_string Greedy_only }
  | Min_edf_wc -> slot_scheduler Baselines.Slot_scheduler.Min_edf_wc
  | Edf_wc -> slot_scheduler Baselines.Slot_scheduler.Edf_wc
  | Fcfs_wc -> slot_scheduler Baselines.Slot_scheduler.Fcfs_wc
