(* Reference implementation of the solver's seed pipeline, kept as the
   straightforward version the optimised one must reproduce exactly: every
   list schedule rebuilds the frozen tasks' profiles anew, the warm
   candidate is completed on a frozen sub-instance by a full greedy solve,
   and its Table-1 check sorts every task into one event sweep per pool.
   Starts are kept in tables keyed by task id, independent of the
   instance's task index; they become [Solution.t] start arrays only at the
   boundary.  Only [Sched.Profile] and [Sched.Solution] are shared with the
   library. *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution
module Profile = Sched.Profile
module Greedy = Sched.Greedy

(* --- task-id tables and start arrays -------------------------------------- *)

let table_of (inst : Instance.t) starts =
  let table = Hashtbl.create 64 in
  Array.iteri
    (fun k (task : T.task) ->
      if starts.(k) <> min_int then
        Hashtbl.replace table task.T.task_id starts.(k))
    (Instance.pending_tasks inst);
  table

let array_of (inst : Instance.t) table =
  Array.map
    (fun (task : T.task) -> Hashtbl.find table task.T.task_id)
    (Instance.pending_tasks inst)

(* --- greedy list scheduling ---------------------------------------------- *)

let compare_jobs order (a : Instance.pending_job) (b : Instance.pending_job) =
  let key (j : Instance.pending_job) =
    match order with
    | Greedy.By_job_id -> j.Instance.job.T.id
    | Greedy.Edf -> j.Instance.job.T.deadline
    | Greedy.Least_laxity -> Instance.laxity j
  in
  let c = compare (key a) (key b) in
  if c <> 0 then c else compare a.Instance.job.T.id b.Instance.job.T.id

let by_duration_desc (a : T.task) (b : T.task) =
  let c = compare b.T.exec_time a.T.exec_time in
  if c <> 0 then c else compare a.T.task_id b.T.task_id

let schedule_sequence (inst : Instance.t) sequence =
  let map_profile = Profile.create ~capacity:inst.Instance.map_capacity in
  let reduce_profile = Profile.create ~capacity:inst.Instance.reduce_capacity in
  Array.iter
    (fun (j : Instance.pending_job) ->
      let occupy profile (f : Instance.fixed_task) =
        Profile.add profile ~start:f.Instance.start
          ~duration:f.Instance.task.T.exec_time
          ~amount:f.Instance.task.T.capacity_req
      in
      Array.iter (occupy map_profile) j.Instance.fixed_maps;
      Array.iter (occupy reduce_profile) j.Instance.fixed_reduces)
    inst.Instance.jobs;
  let starts = Hashtbl.create 256 in
  let place profile ~floor (task : T.task) =
    let start =
      Profile.earliest_fit profile ~from:floor ~duration:task.T.exec_time
        ~amount:task.T.capacity_req
    in
    Profile.add profile ~start ~duration:task.T.exec_time
      ~amount:task.T.capacity_req;
    Hashtbl.replace starts task.T.task_id start;
    start + task.T.exec_time
  in
  Array.iter
    (fun idx ->
      let j = inst.Instance.jobs.(idx) in
      let maps = Array.copy j.Instance.pending_maps in
      Array.sort by_duration_desc maps;
      let lfmt = ref j.Instance.frozen_lfmt in
      Array.iter
        (fun task ->
          let finish = place map_profile ~floor:j.Instance.est task in
          if finish > !lfmt then lfmt := finish)
        maps;
      let reduces = Array.copy j.Instance.pending_reduces in
      Array.sort by_duration_desc reduces;
      let reduce_floor = max !lfmt j.Instance.est in
      Array.iter
        (fun task -> ignore (place reduce_profile ~floor:reduce_floor task))
        reduces)
    sequence;
  Solution.evaluate inst (array_of inst starts)

let greedy ?(order = Greedy.Edf) (inst : Instance.t) =
  let n = Array.length inst.Instance.jobs in
  let sequence = Array.init n (fun i -> i) in
  let cmp a b =
    compare_jobs order inst.Instance.jobs.(a) inst.Instance.jobs.(b)
  in
  Array.sort cmp sequence;
  schedule_sequence inst sequence

(* --- the seed ------------------------------------------------------------ *)

let wave_bound tasks capacity =
  if Array.length tasks = 0 then 0
  else begin
    let total = ref 0 and longest = ref 0 in
    Array.iter
      (fun (t : T.task) ->
        total := !total + (t.T.exec_time * t.T.capacity_req);
        if t.T.exec_time > !longest then longest := t.T.exec_time)
      tasks;
    max !longest (((!total + capacity) - 1) / capacity)
  end

let job_min_completion (inst : Instance.t) (j : Instance.pending_job) =
  let map_span = wave_bound j.Instance.pending_maps inst.Instance.map_capacity in
  let map_end = max j.Instance.frozen_lfmt (j.Instance.est + map_span) in
  let completion =
    if Array.length j.Instance.pending_reduces = 0 then map_end
    else
      map_end
      + wave_bound j.Instance.pending_reduces inst.Instance.reduce_capacity
  in
  max j.Instance.frozen_completion completion

let doomed_last_sequence (inst : Instance.t) =
  let n = Array.length inst.Instance.jobs in
  let seq = Array.init n (fun i -> i) in
  let key i =
    let j = inst.Instance.jobs.(i) in
    let doomed =
      if job_min_completion inst j > j.Instance.job.T.deadline then 1 else 0
    in
    (doomed, j.Instance.job.T.deadline, j.Instance.job.T.id)
  in
  Array.sort (fun a b -> compare (key a) (key b)) seq;
  seq

let greedy_seed ?preferred ~ordering inst =
  let preferred =
    match preferred with Some p -> p | None -> greedy ~order:ordering inst
  in
  let best =
    List.fold_left
      (fun best order ->
        if order = ordering then best
        else
          let sol = greedy ~order inst in
          if Solution.better sol best then sol else best)
      preferred
      [ Greedy.By_job_id; Greedy.Edf; Greedy.Least_laxity ]
  in
  let doomed_last = schedule_sequence inst (doomed_last_sequence inst) in
  if Solution.better doomed_last best then doomed_last else best

(* --- the warm candidate -------------------------------------------------- *)

let freeze_except (inst : Instance.t) starts relax_set =
  let jobs =
    Array.mapi
      (fun jdx (j : Instance.pending_job) ->
        if Hashtbl.mem relax_set jdx then j
        else begin
          let freeze (task : T.task) =
            { Instance.task; start = Hashtbl.find starts task.T.task_id }
          in
          let new_fixed_maps = Array.map freeze j.Instance.pending_maps in
          let new_fixed_reduces = Array.map freeze j.Instance.pending_reduces in
          let completion_of (f : Instance.fixed_task) =
            f.Instance.start + f.Instance.task.T.exec_time
          in
          let fold = Array.fold_left (fun acc f -> max acc (completion_of f)) in
          let frozen_lfmt = fold j.Instance.frozen_lfmt new_fixed_maps in
          let frozen_completion =
            fold
              (fold (max j.Instance.frozen_completion frozen_lfmt)
                 new_fixed_maps)
              new_fixed_reduces
          in
          {
            j with
            Instance.pending_maps = [||];
            pending_reduces = [||];
            fixed_maps = Array.append j.Instance.fixed_maps new_fixed_maps;
            fixed_reduces =
              Array.append j.Instance.fixed_reduces new_fixed_reduces;
            frozen_lfmt;
            frozen_completion;
          }
        end)
      inst.Instance.jobs
  in
  Instance.with_jobs inst jobs

let candidate_feasible (inst : Instance.t) starts =
  let ok = ref true in
  let map_events = ref [] and reduce_events = ref [] in
  let push evs start (task : T.task) =
    evs :=
      (start, task.T.capacity_req)
      :: (start + task.T.exec_time, -task.T.capacity_req)
      :: !evs
  in
  Array.iter
    (fun (j : Instance.pending_job) ->
      Array.iter
        (fun (f : Instance.fixed_task) ->
          push map_events f.Instance.start f.Instance.task)
        j.Instance.fixed_maps;
      Array.iter
        (fun (f : Instance.fixed_task) ->
          push reduce_events f.Instance.start f.Instance.task)
        j.Instance.fixed_reduces;
      let lfmt = ref j.Instance.frozen_lfmt in
      Array.iter
        (fun (task : T.task) ->
          match Hashtbl.find_opt starts task.T.task_id with
          | None -> ok := false
          | Some s ->
              if s < j.Instance.est then ok := false;
              if s + task.T.exec_time > !lfmt then
                lfmt := s + task.T.exec_time;
              push map_events s task)
        j.Instance.pending_maps;
      Array.iter
        (fun (task : T.task) ->
          match Hashtbl.find_opt starts task.T.task_id with
          | None -> ok := false
          | Some s ->
              if s < !lfmt then ok := false;
              push reduce_events s task)
        j.Instance.pending_reduces)
    inst.Instance.jobs;
  let capacity_ok events capacity =
    let evs = Array.of_list !events in
    Array.sort
      (fun (t1, d1) (t2, d2) ->
        if t1 <> t2 then compare t1 t2 else compare d1 d2)
      evs;
    let load = ref 0 and fits = ref true in
    Array.iter
      (fun (_, delta) ->
        load := !load + delta;
        if !load > capacity then fits := false)
      evs;
    !fits
  in
  !ok
  && capacity_ok map_events inst.Instance.map_capacity
  && capacity_ok reduce_events inst.Instance.reduce_capacity

let warm_candidate (inst : Instance.t) (inc : Cp.Solver.incumbent) =
  let carried = table_of inst inc in
  let fresh j (task : T.task) =
    match Hashtbl.find_opt carried task.T.task_id with
    | Some s -> s >= j.Instance.est
    | None -> false
  in
  let covered (j : Instance.pending_job) =
    Array.for_all (fresh j) j.Instance.pending_maps
    && Array.for_all (fresh j) j.Instance.pending_reduces
  in
  let uncovered = Hashtbl.create 8 in
  Array.iteri
    (fun jdx j -> if not (covered j) then Hashtbl.replace uncovered jdx ())
    inst.Instance.jobs;
  let n_jobs = Array.length inst.Instance.jobs in
  if n_jobs = 0 || Hashtbl.length uncovered = n_jobs then None
  else begin
    let starts = Hashtbl.create 64 in
    Array.iteri
      (fun jdx (j : Instance.pending_job) ->
        if not (Hashtbl.mem uncovered jdx) then begin
          let copy (task : T.task) =
            Hashtbl.replace starts task.T.task_id
              (Hashtbl.find carried task.T.task_id)
          in
          Array.iter copy j.Instance.pending_maps;
          Array.iter copy j.Instance.pending_reduces
        end)
      inst.Instance.jobs;
    if Hashtbl.length uncovered > 0 then begin
      let sub = freeze_except inst starts uncovered in
      let partial = greedy ~order:Greedy.Edf sub in
      Hashtbl.iter (Hashtbl.replace starts)
        (table_of sub partial.Solution.starts)
    end;
    if candidate_feasible inst starts then
      Some (Solution.evaluate inst (array_of inst starts))
    else None
  end

let starting_incumbent ~(options : Cp.Solver.options) ?warm ?lb inst =
  let ordering = options.Cp.Solver.ordering in
  let cold () = (greedy_seed ~ordering inst, false) in
  match warm with
  | None -> cold ()
  | Some inc -> (
      match warm_candidate inst inc with
      | None -> cold ()
      | Some warm
        when (match lb with
             | Some b -> warm.Solution.late_jobs <= b
             | None -> false) ->
          (warm, true)
      | Some warm ->
          let preferred = greedy ~order:ordering inst in
          if not (Solution.better preferred warm) then (warm, true)
          else (greedy_seed ~preferred ~ordering inst, false))
