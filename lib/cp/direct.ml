module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution

type assignment = {
  solution : Sched.Solution.t;
  resource_of : (int, int) Hashtbl.t;
}

type stats = {
  proved_optimal : bool;
  nodes : int;
  failures : int;
  elapsed : float;
}

type task_entry = {
  task : T.task;
  job_index : int;
  svar : Store.var;  (** start *)
  avar : Store.var;  (** resource choice, 0..m-1 *)
}

type model = {
  store : Store.t;
  instance : Instance.t;
  entries : task_entry array;
  lates : (Store.var * int) array;
  bound : int ref;
  bound_pid : Store.propagator_id;
}

let build (inst : Instance.t) ~cluster ~horizon =
  if Instance.fixed_task_count inst > 0 then
    invalid_arg "Direct.build: frozen tasks are not supported";
  if
    T.total_map_slots cluster <> inst.Instance.map_capacity
    || T.total_reduce_slots cluster <> inst.Instance.reduce_capacity
  then invalid_arg "Direct.build: cluster capacities do not match instance";
  let m = Array.length cluster in
  let store = Store.create () in
  let entries = ref [] in
  let lates = ref [] in
  Array.iteri
    (fun job_index (j : Instance.pending_job) ->
      let est = j.Instance.est in
      let map_vars =
        Array.map
          (fun (task : T.task) ->
            let svar = Store.new_var store ~min:est ~max:horizon in
            let avar = Store.new_var store ~min:0 ~max:(m - 1) in
            entries := { task; job_index; svar; avar } :: !entries;
            (svar, task.T.exec_time))
          j.Instance.pending_maps
      in
      let lfmt = Store.new_var store ~min:0 ~max:(2 * horizon) in
      Propagators.max_of store ~result:lfmt ~terms:(Array.to_list map_vars)
        ~floor:(max j.Instance.frozen_lfmt est);
      let reduce_vars =
        Array.map
          (fun (task : T.task) ->
            let svar = Store.new_var store ~min:est ~max:(2 * horizon) in
            let avar = Store.new_var store ~min:0 ~max:(m - 1) in
            entries := { task; job_index; svar; avar } :: !entries;
            Propagators.ge_offset store svar lfmt 0;
            (svar, task.T.exec_time))
          j.Instance.pending_reduces
      in
      let completion = Store.new_var store ~min:0 ~max:(4 * horizon) in
      Propagators.max_of store ~result:completion
        ~terms:((lfmt, 0) :: Array.to_list reduce_vars)
        ~floor:j.Instance.frozen_completion;
      let late = Store.new_var store ~min:0 ~max:1 in
      Propagators.lateness store ~late ~completion
        ~deadline:j.Instance.job.T.deadline;
      lates := (late, j.Instance.job.T.deadline) :: !lates)
    inst.Instance.jobs;
  let entries = Array.of_list (List.rev !entries) in
  (* one gated cumulative per resource per pool: the x_tr decomposition *)
  Array.iteri
    (fun r (res : T.resource) ->
      let gated kind =
        entries
        |> Array.to_list
        |> List.filter_map (fun e ->
               if e.task.T.kind = kind then
                 Some
                   {
                     Propagators.g_start = e.svar;
                     g_duration = e.task.T.exec_time;
                     g_demand = e.task.T.capacity_req;
                     g_member = e.avar;
                     g_value = r;
                   }
               else None)
        |> Array.of_list
      in
      if res.T.map_capacity > 0 then
        Propagators.cumulative_gated store ~tasks:(gated T.Map_task)
          ~capacity:res.T.map_capacity
      else if
        Array.exists (fun e -> e.task.T.kind = T.Map_task) entries
      then
        (* resource with no map slots: no map task may choose it *)
        Array.iter
          (fun e ->
            if e.task.T.kind = T.Map_task then begin
              let pid =
                Store.register store ~priority:0 (fun s ->
                    if Store.is_fixed s e.avar && Store.value s e.avar = r
                    then raise (Store.Fail "no map slots on resource"))
              in
              (* only reads fixedness: a fix event is the only trigger *)
              Store.watch_fix store e.avar pid;
              Store.schedule store pid
            end)
          entries;
      if res.T.reduce_capacity > 0 then
        Propagators.cumulative_gated store
          ~tasks:(gated T.Reduce_task) ~capacity:res.T.reduce_capacity
      else if Array.exists (fun e -> e.task.T.kind = T.Reduce_task) entries
      then
        Array.iter
          (fun e ->
            if e.task.T.kind = T.Reduce_task then begin
              let pid =
                Store.register store ~priority:0 (fun s ->
                    if Store.is_fixed s e.avar && Store.value s e.avar = r
                    then raise (Store.Fail "no reduce slots on resource"))
              in
              Store.watch_fix store e.avar pid;
              Store.schedule store pid
            end)
          entries)
    cluster;
  let lates = Array.of_list (List.rev !lates) in
  let bound = ref (Array.length inst.Instance.jobs + 1) in
  let bound_pid =
    Propagators.sum_lt_bound store ~vars:(Array.map fst lates) ~bound
  in
  { store; instance = inst; entries; lates; bound; bound_pid }

(* Dedicated DFS: lateness phase, then assignment variables (m-ary), then
   SetTimes on starts — the combined model's search with one extra phase. *)

exception Limit_reached

type search_state = {
  model : model;
  limits : Search.limits;
  mutable best : assignment option;
  mutable nodes : int;
  mutable failures : int;
  mutable ticks : int;
}

let check_limits st =
  if st.limits.Search.node_limit > 0 && st.nodes >= st.limits.Search.node_limit
  then raise Limit_reached;
  if
    st.limits.Search.fail_limit > 0
    && st.failures >= st.limits.Search.fail_limit
  then raise Limit_reached;
  st.ticks <- st.ticks - 1;
  if st.ticks <= 0 then begin
    st.ticks <- 64;
    match st.limits.Search.wall_deadline with
    | Some deadline when Obs.Clock.now () > deadline -> raise Limit_reached
    | _ -> ()
  end

let select_late st =
  let s = st.model.store in
  let best = ref None in
  Array.iter
    (fun (late, deadline) ->
      if not (Store.is_fixed s late) then
        match !best with
        | Some (_, d) when d <= deadline -> ()
        | _ -> best := Some (late, deadline))
    st.model.lates;
  Option.map fst !best

let select_assignment st =
  let s = st.model.store in
  let best = ref None in
  Array.iter
    (fun e ->
      if not (Store.is_fixed s e.avar) then begin
        let est = Store.min_of s e.svar in
        match !best with
        | Some (_, k) when k <= (est, e.task.T.task_id) -> ()
        | _ -> best := Some (e, (est, e.task.T.task_id))
      end)
    st.model.entries;
  Option.map fst !best

let select_start st postponed =
  let s = st.model.store in
  let best = ref (-1) and best_key = ref (max_int, max_int, min_int) in
  Array.iteri
    (fun i e ->
      if not (Store.is_fixed s e.svar) then begin
        let est = Store.min_of s e.svar in
        if postponed.(i) <> est then begin
          let deadline =
            st.model.instance.Instance.jobs.(e.job_index).Instance.job
              .T.deadline
          in
          let key = (est, deadline - est - e.task.T.exec_time, -e.task.T.exec_time) in
          if key < !best_key then begin
            best_key := key;
            best := i
          end
        end
      end)
    st.model.entries;
  if !best < 0 then None else Some !best

let record st =
  let m = st.model in
  let resource_of = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      Hashtbl.replace resource_of e.task.T.task_id (Store.value m.store e.avar))
    m.entries;
  (* entries are in task-index order *)
  let solution =
    Solution.evaluate m.instance
      (Array.map (fun e -> Store.value m.store e.svar) m.entries)
  in
  if solution.Solution.late_jobs < !(m.bound) then begin
    st.best <- Some { solution; resource_of };
    m.bound := solution.Solution.late_jobs
  end

let rec dfs st postponed =
  check_limits st;
  st.nodes <- st.nodes + 1;
  let s = st.model.store in
  let attempt f =
    Store.push_level s;
    (try
       f ();
       Store.schedule s st.model.bound_pid;
       Store.propagate s;
       dfs st postponed
     with Store.Fail _ -> st.failures <- st.failures + 1);
    Store.backtrack s
  in
  match select_late st with
  | Some late ->
      attempt (fun () -> Store.set_max s late 0);
      attempt (fun () -> Store.set_min s late 1)
  | None -> (
      match select_assignment st with
      | Some e ->
          for r = Store.min_of s e.avar to Store.max_of s e.avar do
            attempt (fun () -> Store.fix s e.avar r)
          done
      | None -> (
          match select_start st postponed with
          | None ->
              if
                Array.for_all
                  (fun e -> Store.is_fixed s e.svar)
                  st.model.entries
              then record st
          | Some i ->
              let e = st.model.entries.(i) in
              let est = Store.min_of s e.svar in
              attempt (fun () -> Store.fix s e.svar est);
              let postponed' = Array.copy postponed in
              postponed'.(i) <- est;
              dfs st postponed'))

let solve ?(limits = Search.no_limits) ~cluster (inst : Instance.t) =
  let t0 = Obs.Clock.now () in
  let greedy = Sched.Greedy.solve inst in
  let horizon = Model.default_horizon inst in
  let model = build inst ~cluster ~horizon in
  model.bound := greedy.Solution.late_jobs + 1;
  let st =
    { model; limits; best = None; nodes = 0; failures = 0; ticks = 1 }
  in
  let postponed = Array.make (Array.length model.entries) min_int in
  let proved =
    try
      (try
         Store.propagate model.store;
         dfs st postponed
       with Store.Fail _ -> st.failures <- st.failures + 1);
      true
    with Limit_reached -> false
  in
  Store.backtrack_to_root model.store;
  ( st.best,
    {
      proved_optimal = proved;
      nodes = st.nodes;
      failures = st.failures;
      elapsed = Obs.Clock.now () -. t0;
    } )
