module T = Mapreduce.Types
module Instance = Sched.Instance

type task_cols = {
  task : T.task;
  job_index : int;
  dur_slots : int;
  lo : int;  (** first allowed start slot *)
  hi : int;  (** last allowed start slot *)
  base : int;  (** variable index of x_{t,lo} *)
}

type model = {
  instance : Instance.t;
  quantum : int;
  horizon : int;  (** slots *)
  tasks : task_cols array;
  n_base : int;  (** variable index of N_0 *)
  n_vars : int;
  prob : Simplex.problem;
}

let ceil_div a b = (a + b - 1) / b

let variables m = m.n_vars
let problem m = m.prob

let build (inst : Instance.t) ~quantum ~horizon_slots =
  if quantum <= 0 then invalid_arg "Milp_model.build: quantum must be > 0";
  if Instance.fixed_task_count inst > 0 then
    invalid_arg "Milp_model.build: frozen tasks are not supported";
  let horizon = horizon_slots in
  let jobs = inst.Instance.jobs in
  (* per-task column ranges *)
  let tasks = ref [] in
  let next_var = ref 0 in
  Array.iteri
    (fun job_index (j : Instance.pending_job) ->
      let est_slot = ceil_div j.Instance.est quantum in
      let add (task : T.task) =
        let dur_slots = max 1 (ceil_div task.T.exec_time quantum) in
        let lo = est_slot and hi = horizon - dur_slots in
        if hi < lo then
          invalid_arg
            (Printf.sprintf
               "Milp_model.build: task %d does not fit in the horizon"
               task.T.task_id);
        tasks := { task; job_index; dur_slots; lo; hi; base = !next_var } :: !tasks;
        next_var := !next_var + (hi - lo + 1)
      in
      Array.iter add j.Instance.pending_maps;
      Array.iter add j.Instance.pending_reduces)
    jobs;
  let tasks = Array.of_list (List.rev !tasks) in
  let n_base = !next_var in
  let n_vars = n_base + Array.length jobs in
  let row coeffs relation rhs = { Simplex.coeffs; relation; rhs } in
  let zero () = Array.make n_vars 0. in
  let rows = ref [] in
  let push r = rows := r :: !rows in
  (* 1. each task starts exactly once *)
  Array.iter
    (fun tc ->
      let c = zero () in
      for k = 0 to tc.hi - tc.lo do
        c.(tc.base + k) <- 1.
      done;
      push (row c Simplex.Eq 1.))
    tasks;
  (* helper: add Σ f(τ)·x_{t,τ} into a coefficient vector *)
  let accumulate c tc f =
    for k = 0 to tc.hi - tc.lo do
      c.(tc.base + k) <- c.(tc.base + k) +. f (tc.lo + k)
    done
  in
  (* 2. precedence: each reduce starts after each map of its job ends *)
  Array.iteri
    (fun job_index (_ : Instance.pending_job) ->
      let of_kind kind =
        Array.to_list tasks
        |> List.filter (fun tc ->
               tc.job_index = job_index && tc.task.T.kind = kind)
      in
      List.iter
        (fun reduce_tc ->
          List.iter
            (fun map_tc ->
              let c = zero () in
              accumulate c reduce_tc float_of_int;
              accumulate c map_tc (fun tau ->
                  -.float_of_int (tau + map_tc.dur_slots));
              push (row c Simplex.Ge 0.))
            (of_kind T.Map_task))
        (of_kind T.Reduce_task))
    jobs;
  (* 3. per-slot pool capacities *)
  let capacity_rows kind cap =
    for sigma = 0 to horizon - 1 do
      let c = zero () in
      let nonzero = ref false in
      Array.iter
        (fun tc ->
          if tc.task.T.kind = kind then
            for k = 0 to tc.hi - tc.lo do
              let tau = tc.lo + k in
              if tau <= sigma && sigma < tau + tc.dur_slots then begin
                c.(tc.base + k) <-
                  c.(tc.base + k) +. float_of_int tc.task.T.capacity_req;
                nonzero := true
              end
            done)
        tasks;
      if !nonzero then push (row c Simplex.Le (float_of_int cap))
    done
  in
  capacity_rows T.Map_task inst.Instance.map_capacity;
  capacity_rows T.Reduce_task inst.Instance.reduce_capacity;
  (* 4. lateness links: completion of any task of job j within d_j unless
        N_j = 1 (big-M = horizon) *)
  Array.iteri
    (fun job_index (j : Instance.pending_job) ->
      let d_slot = j.Instance.job.T.deadline / quantum in
      Array.iter
        (fun tc ->
          if tc.job_index = job_index then begin
            let c = zero () in
            accumulate c tc (fun tau -> float_of_int (tau + tc.dur_slots));
            c.(n_base + job_index) <- -.float_of_int horizon;
            push (row c Simplex.Le (float_of_int d_slot))
          end)
        tasks;
      (* N_j <= 1 *)
      let c = zero () in
      c.(n_base + job_index) <- 1.;
      push (row c Simplex.Le 1.))
    jobs;
  let objective = Array.make n_vars 0. in
  Array.iteri (fun i _ -> objective.(n_base + i) <- 1.) jobs;
  {
    instance = inst;
    quantum;
    horizon;
    tasks;
    n_base;
    n_vars;
    prob = { Simplex.objective; rows = List.rev !rows };
  }

let solve ?(limits = Mip.no_limits) m =
  let integer = List.init m.n_vars Fun.id in
  let outcome = Mip.solve ~limits m.prob ~integer in
  let solution =
    Option.map
      (fun ((_, x) : float * float array) ->
        (* [m.tasks] is in task-index order *)
        let starts =
          Array.map
            (fun tc ->
              let chosen = ref tc.lo in
              for k = 0 to tc.hi - tc.lo do
                if x.(tc.base + k) > 0.5 then chosen := tc.lo + k
              done;
              !chosen * m.quantum)
            m.tasks
        in
        Sched.Solution.evaluate m.instance starts)
      outcome.Mip.best
  in
  (solution, outcome)

let suggested_horizon_slots (inst : Instance.t) ~quantum =
  (* greedy-seed makespan: usually contains an optimal schedule; for a
     guaranteed bound use max est + total work (much larger) *)
  let seed = Sched.Greedy.solve inst in
  let tasks = Instance.pending_tasks inst in
  let makespan = ref 0 in
  Array.iteri
    (fun k start -> makespan := max !makespan (start + tasks.(k).T.exec_time))
    seed.Sched.Solution.starts;
  let makespan = !makespan in
  ceil_div makespan quantum + 1
