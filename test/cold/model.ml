module T = Mapreduce.Types
module Store = Cp.Store
module Propagators = Cp.Propagators
module Instance = Sched.Instance
module Solution = Sched.Solution

type task_var = { var : Store.var; task : T.task; job_index : int }

type t = {
  store : Store.t;
  instance : Instance.t;
  starts : task_var array;
  lates : Store.var array;
  completions : Store.var array;
  bound : int ref;
  bound_pid : Store.propagator_id;
  horizon : int;
}

let build ?(kernel = Edge_finding.capacity) (inst : Instance.t) ~horizon =
  let store = Store.create () in
  let n_jobs = Array.length inst.Instance.jobs in
  let starts = ref [] in
  let lates = Array.make (max n_jobs 1) 0 in
  let completions = Array.make (max n_jobs 1) 0 in
  let map_terms = ref [] and reduce_terms = ref [] in
  let max_dur = ref 1 in
  Array.iter
    (fun (j : Instance.pending_job) ->
      Array.iter
        (fun (task : T.task) -> max_dur := max !max_dur task.T.exec_time)
        j.Instance.pending_maps;
      Array.iter
        (fun (task : T.task) -> max_dur := max !max_dur task.T.exec_time)
        j.Instance.pending_reduces)
    inst.Instance.jobs;
  let value_horizon = horizon + !max_dur in
  for jdx = 0 to n_jobs - 1 do
    let j = inst.Instance.jobs.(jdx) in
    let est = j.Instance.est in
    (* map task start variables: constraint (2) as an initial bound *)
    let map_vars =
      Array.map
        (fun (task : T.task) ->
          let var = Store.new_var store ~min:est ~max:horizon in
          starts := { var; task; job_index = jdx } :: !starts;
          map_terms :=
            { Propagators.start = var;
              duration = task.T.exec_time;
              demand = task.T.capacity_req }
            :: !map_terms;
          (var, task.T.exec_time))
        j.Instance.pending_maps
    in
    (* LFMT: max of map completions over pending and frozen maps (3) *)
    let lfmt = Store.new_var store ~min:0 ~max:value_horizon in
    Propagators.max_of store ~result:lfmt ~vars:(Array.map fst map_vars)
      ~offsets:(Array.map snd map_vars)
      ~floor:(max j.Instance.frozen_lfmt est);
    (* reduce start variables: after LFMT *)
    let reduce_vars =
      Array.map
        (fun (task : T.task) ->
          let var = Store.new_var store ~min:est ~max:value_horizon in
          starts := { var; task; job_index = jdx } :: !starts;
          reduce_terms :=
            { Propagators.start = var;
              duration = task.T.exec_time;
              demand = task.T.capacity_req }
            :: !reduce_terms;
          Propagators.ge_offset store var lfmt 0;
          (var, task.T.exec_time))
        j.Instance.pending_reduces
    in
    (* completion: max of reduce completions, LFMT, frozen completions *)
    let completion = Store.new_var store ~min:0 ~max:(value_horizon * 2) in
    Propagators.max_of store ~result:completion
      ~vars:(Array.append [| lfmt |] (Array.map fst reduce_vars))
      ~offsets:(Array.append [| 0 |] (Array.map snd reduce_vars))
      ~floor:j.Instance.frozen_completion;
    completions.(jdx) <- completion;
    (* N_j: constraint (4) *)
    let late = Store.new_var store ~min:0 ~max:1 in
    Propagators.lateness store ~late ~completion
      ~deadline:j.Instance.job.T.deadline;
    lates.(jdx) <- late
  done;
  (* capacity constraints (5)/(6) on the combined resource *)
  let fixed_of select =
    Array.to_list inst.Instance.jobs
    |> List.concat_map (fun j ->
           Array.to_list (select j)
           |> List.map (fun (f : Instance.fixed_task) ->
                  ( f.Instance.start,
                    f.Instance.task.T.exec_time,
                    f.Instance.task.T.capacity_req )))
    |> Array.of_list
  in
  kernel store ~tasks:(Array.of_list !map_terms)
    ~fixed:(fixed_of (fun j -> j.Instance.fixed_maps))
    ~capacity:inst.Instance.map_capacity;
  kernel store ~tasks:(Array.of_list !reduce_terms)
    ~fixed:(fixed_of (fun j -> j.Instance.fixed_reduces))
    ~capacity:inst.Instance.reduce_capacity;
  (* objective cut for branch-and-bound: Σ N_j < bound *)
  let bound = ref (n_jobs + 1) in
  let lates = Array.sub lates 0 n_jobs in
  let completions = Array.sub completions 0 n_jobs in
  let objective = Propagators.sum_lt_bound_dyn store ~bound in
  Array.iter (Propagators.dyn_sum_add objective store) lates;
  let bound_pid = Propagators.dyn_sum_pid objective in
  {
    store;
    instance = inst;
    starts = Array.of_list (List.rev !starts);
    lates;
    completions;
    bound;
    bound_pid;
    horizon;
  }

let all_starts_fixed m =
  Array.for_all (fun tv -> Store.is_fixed m.store tv.var) m.starts

let extract m =
  if not (all_starts_fixed m) then
    invalid_arg "Model.extract: not all start variables are fixed";
  Solution.evaluate m.instance
    (Array.map (fun tv -> Store.value m.store tv.var) m.starts)
