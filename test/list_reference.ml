(* The per-pass list-scheduling routines as they stood before the seed,
   the warm completion and the matchmaker's ordering were rewritten for
   speed, kept verbatim as the reference the rewritten code must reproduce
   exactly (starts, late counts, tardiness, dispatches), the way
   [Naive_cumulative] serves the propagation kernel.  Only [Sched.Profile],
   [Sched.Instance] and [Sched.Solution] are shared with the library. *)

module Greedy = struct
  module Instance = Sched.Instance

  (* [Solution.tally] as it was: the objective with each job's completion
     supplied by the list scheduler *)
  module Solution = struct
    include Sched.Solution

    let tally (inst : Instance.t) starts ~completion =
      let late = ref 0 and tardiness = ref 0 in
      Array.iteri
        (fun jdx j ->
          let over = completion jdx j - j.Instance.job.Mapreduce.Types.deadline in
          if over > 0 then begin
            incr late;
            tardiness := !tardiness + over
          end)
        inst.Instance.jobs;
      { starts; late_jobs = !late; total_tardiness = !tardiness }
  end

  module Profile = Sched.Profile
  module T = Mapreduce.Types

  type order = Sched.Greedy.order = By_job_id | Edf | Least_laxity

  (* What every list schedule of one instance shares.  The frozen tasks'
     profiles are built once and copied per schedule: a profile's usage does
     not depend on the order its tasks were added in, so a copy equals a
     fresh rebuild.  Each job's pending tasks are sorted on first use. *)
  type pass = {
    inst : Instance.t;
    map_frozen : Profile.t;
    reduce_frozen : Profile.t;
    tasks : T.task array;  (* the pending tasks, by task index *)
    maps : int array array;  (* per job: its maps' task indices, once sorted *)
    reduces : int array array;
    sorted : bool array;
  }

  let occupy profile (f : Instance.fixed_task) =
    Profile.add profile ~start:f.Instance.start
      ~duration:f.Instance.task.T.exec_time ~amount:f.Instance.task.T.capacity_req

  let prepare (inst : Instance.t) =
    let map_frozen = Profile.create ~capacity:inst.Instance.map_capacity in
    let reduce_frozen = Profile.create ~capacity:inst.Instance.reduce_capacity in
    let jobs = inst.Instance.jobs in
    Array.iter
      (fun (j : Instance.pending_job) ->
        Array.iter (occupy map_frozen) j.Instance.fixed_maps;
        Array.iter (occupy reduce_frozen) j.Instance.fixed_reduces)
      jobs;
    let n = Array.length jobs in
    {
      inst;
      map_frozen;
      reduce_frozen;
      tasks = Instance.pending_tasks inst;
      maps = Array.make n [||];
      reduces = Array.make n [||];
      sorted = Array.make n false;
    }

  (* Longest tasks first within a phase: pairs well with earliest-fit since the
     big tasks claim contiguous room before fragmentation sets in. *)
  let sort_job p jdx =
    if not p.sorted.(jdx) then begin
      let j = p.inst.Instance.jobs.(jdx) in
      let longest_first from count =
        let a = Array.init count (fun i -> from + i) in
        Array.stable_sort
          (fun x y ->
            let tx = p.tasks.(x) and ty = p.tasks.(y) in
            let c = Int.compare ty.T.exec_time tx.T.exec_time in
            if c <> 0 then c else Int.compare tx.T.task_id ty.T.task_id)
          a;
        a
      in
      let off = p.inst.Instance.first.(jdx) in
      let n_maps = Array.length j.Instance.pending_maps in
      p.maps.(jdx) <- longest_first off n_maps;
      p.reduces.(jdx) <-
        longest_first (off + n_maps) (Array.length j.Instance.pending_reduces);
      p.sorted.(jdx) <- true
    end

  (* One schedule under construction: the frozen profiles' copies, the start
     array and each job's completion so far (the same value
     [Solution.job_completion] reads back from the array). *)
  type sheet = {
    map_profile : Profile.t;
    reduce_profile : Profile.t;
    starts : int array;
    completion : int array;
  }

  let sheet p =
    {
      map_profile = Profile.copy p.map_frozen;
      reduce_profile = Profile.copy p.reduce_frozen;
      starts = Array.make (Array.length p.tasks) 0;
      completion =
        Array.map (fun j -> j.Instance.frozen_completion) p.inst.Instance.jobs;
    }

  let record p sh jdx k start =
    sh.starts.(k) <- start;
    let finish = start + p.tasks.(k).T.exec_time in
    if finish > sh.completion.(jdx) then sh.completion.(jdx) <- finish;
    finish

  (* Each job of [sequence] in turn: maps longest-first at their earliest fit
     from est, then reduces longest-first from the job's latest map finish. *)
  let place_jobs p sh sequence =
    let place profile jdx ~floor k =
      let task = p.tasks.(k) in
      let start =
        Profile.place profile ~from:floor ~duration:task.T.exec_time
          ~amount:task.T.capacity_req
      in
      record p sh jdx k start
    in
    Array.iter
      (fun jdx ->
        let j = p.inst.Instance.jobs.(jdx) in
        sort_job p jdx;
        let lfmt = ref j.Instance.frozen_lfmt in
        Array.iter
          (fun k ->
            let finish = place sh.map_profile jdx ~floor:j.Instance.est k in
            if finish > !lfmt then lfmt := finish)
          p.maps.(jdx);
        let reduce_floor = max !lfmt j.Instance.est in
        Array.iter
          (fun k -> ignore (place sh.reduce_profile jdx ~floor:reduce_floor k))
          p.reduces.(jdx))
      sequence

  let result p sh =
    Solution.tally p.inst sh.starts ~completion:(fun jdx _ -> sh.completion.(jdx))

  let schedule_sequence p sequence =
    let sh = sheet p in
    place_jobs p sh sequence;
    result p sh

  (* [sequence] sorted by [order]; ties on the key go to the lower job id.
     Keys are computed once per job, not per comparison. *)
  let sort_by order (inst : Instance.t) sequence =
    let key (j : Instance.pending_job) =
      match order with
      | By_job_id -> j.Instance.job.T.id
      | Edf -> j.Instance.job.T.deadline
      | Least_laxity -> Instance.laxity j
    in
    let keys = Array.map key inst.Instance.jobs in
    let id jdx = inst.Instance.jobs.(jdx).Instance.job.T.id in
    Array.stable_sort
      (fun a b ->
        let c = Int.compare keys.(a) keys.(b) in
        if c <> 0 then c else Int.compare (id a) (id b))
      sequence;
    sequence

  let schedule ?(order = Edf) p =
    let n = Array.length p.inst.Instance.jobs in
    schedule_sequence p (sort_by order p.inst (Array.init n Fun.id))

  (* The covered jobs keep their carried starts, checked against est and
     their own maps' finish as they are added; the rest are EDF-scheduled
     around them.  The capacity check reads the final peak: usage only grows
     as tasks are added, so it bounds every intermediate one. *)
  let complete p ~carried ~covered =
    let sh = sheet p in
    let ok = ref true in
    Array.iteri
      (fun jdx (j : Instance.pending_job) ->
        if covered.(jdx) then begin
          let add profile ~floor k =
            let start = carried.(k) and task = p.tasks.(k) in
            if start < floor then ok := false;
            Profile.add profile ~start ~duration:task.T.exec_time
              ~amount:task.T.capacity_req;
            record p sh jdx k start
          in
          let off = p.inst.Instance.first.(jdx) in
          let n_maps = Array.length j.Instance.pending_maps in
          let lfmt = ref j.Instance.frozen_lfmt in
          for k = off to off + n_maps - 1 do
            let finish = add sh.map_profile ~floor:j.Instance.est k in
            if finish > !lfmt then lfmt := finish
          done;
          let reduce_floor = max !lfmt j.Instance.est in
          for k = off + n_maps to p.inst.Instance.first.(jdx + 1) - 1 do
            ignore (add sh.reduce_profile ~floor:reduce_floor k)
          done
        end)
      p.inst.Instance.jobs;
    let rest = Array.make (Array.length covered) 0 and n_rest = ref 0 in
    Array.iteri
      (fun jdx c ->
        if not c then begin
          rest.(!n_rest) <- jdx;
          incr n_rest
        end)
      covered;
    place_jobs p sh (sort_by Edf p.inst (Array.sub rest 0 !n_rest));
    let fits =
      !ok
      && Profile.max_usage sh.map_profile <= p.inst.Instance.map_capacity
      && Profile.max_usage sh.reduce_profile <= p.inst.Instance.reduce_capacity
    in
    (result p sh, fits)

  let solve_with_sequence inst sequence =
    let n = Array.length inst.Instance.jobs in
    if Array.length sequence <> n then
      invalid_arg "Greedy.solve_with_sequence: sequence length mismatch";
    let seen = Array.make n false in
    Array.iter
      (fun i ->
        if i < 0 || i >= n || seen.(i) then
          invalid_arg "Greedy.solve_with_sequence: not a permutation";
        seen.(i) <- true)
      sequence;
    schedule_sequence (prepare inst) sequence

  let solve ?order inst = schedule ?order (prepare inst)
end

(* --- the seed (formerly in Cp.Solver) ------------------------------------- *)

module Seed = struct
  module T = Mapreduce.Types
  module Instance = Sched.Instance
  module Solution = Sched.Solution

  type incumbent = Cp.Solver.incumbent = {
    carried_starts : int array;
    changed_jobs : int list;
  }

  (* Wave-based lower bound on the span of a task set under a capacity:
     no schedule can beat the longest task, nor total-work/capacity. *)
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

  let job_doomed (inst : Instance.t) (j : Instance.pending_job) =
    job_min_completion inst j > j.Instance.job.T.deadline

  let late_lower_bound (inst : Instance.t) =
    Array.fold_left
      (fun acc j -> if job_doomed inst j then acc + 1 else acc)
      0 inst.Instance.jobs

  (* EDF sequence with provably-doomed jobs pushed last: a job that cannot meet
     its deadline in any schedule should not take resources ahead of savable
     ones — the sacrifice the CP objective makes naturally, pre-baked into a
     seed.  Sorted on (doomed, deadline, id), each job's doom computed once. *)
  let doomed_last_sequence (inst : Instance.t) =
    let jobs = inst.Instance.jobs in
    let doomed = Array.map (job_doomed inst) jobs in
    let deadline i = jobs.(i).Instance.job.T.deadline
    and id i = jobs.(i).Instance.job.T.id in
    let seq = Array.init (Array.length jobs) Fun.id in
    Array.stable_sort
      (fun a b ->
        let c = Bool.compare doomed.(a) doomed.(b) in
        if c <> 0 then c
        else
          let c = Int.compare (deadline a) (deadline b) in
          if c <> 0 then c else Int.compare (id a) (id b))
      seq;
    seq

  (* Best greedy seed across the orderings (plus the doomed-last variant),
     preferring the configured one on ties.  [?preferred] lets a caller that
     already ran the configured ordering hand the result in. *)
  let greedy_seed ?preferred ~ordering (pass : Greedy.pass) inst =
    let preferred =
      match preferred with
      | Some p -> p
      | None -> Greedy.schedule ~order:ordering pass
    in
    let best =
      List.fold_left
        (fun best order ->
          if order = ordering then best
          else
            let sol = Greedy.schedule ~order pass in
            if Solution.better sol best then sol else best)
        preferred
        [ Greedy.By_job_id; Greedy.Edf; Greedy.Least_laxity ]
    in
    let doomed_last =
      Greedy.schedule_sequence pass (doomed_last_sequence inst)
    in
    if Solution.better doomed_last best then doomed_last else best

  (* Freeze the pending tasks of every non-relaxed job at their incumbent
     start times, producing the LNS subproblem.  A relaxed job keeps its
     pending tasks, so the subproblem's task index lists exactly theirs, job
     by job. *)
  (* Complete a carried-over plan into a full candidate solution for the
     updated instance.  A job is "covered" when every one of its pending tasks
     still has a carried (non-stale) start; covered jobs keep those starts and
     the remaining jobs (new arrivals, or jobs whose carried entries went
     stale) are list-scheduled around them on the pass's frozen profiles.  The
     result is only returned when it passes the Table-1 constraint check
     ({!Greedy.complete}: per-task est and precedence arithmetic plus the
     finished profiles' peaks), so a warm start can never inject an
     infeasible incumbent. *)
  let warm_in (pass : Greedy.pass) (inst : Instance.t) (inc : incumbent) =
    let carried = inc.carried_starts in
    (* a carried start below the job's current est is stale (the clock or a
       deferral release bumped s_j past it) and poisons the whole job; a task
       without a carried start holds [min_int], below every est *)
    let covered =
      Array.mapi
        (fun jdx (j : Instance.pending_job) ->
          let est = j.Instance.est in
          let k = ref inst.Instance.first.(jdx)
          and stop = inst.Instance.first.(jdx + 1) in
          while !k < stop && carried.(!k) >= est do
            incr k
          done;
          !k = stop)
        inst.Instance.jobs
    in
    if not (Array.exists Fun.id covered) then None
    else
      (* a fixed Edf completion order, whatever the seed ordering *)
      match Greedy.complete pass ~carried:inc.carried_starts ~covered with
      | sol, true -> Some sol
      | _, false -> None

  let warm_candidate inst inc = warm_in (Greedy.prepare inst) inst inc

  (* The incumbent the search pipeline actually starts from.  Cold solves take
     the best greedy seed over every ordering.  Warm solves put the carried
     plan on the critical path instead of on top of it: when the caller
     supplies the lower bound and the warm candidate already meets it, no
     greedy runs at all (the plan-cache-hit fast path — the whole solve
     reduces to one coverage check plus a list-scheduling completion);
     otherwise the candidate is raced against a single pass of the configured
     ordering, and only when it loses does the full multi-ordering cold seed
     run.  Ties go to the warm plan — it minimizes churn against the previous
     schedule.  The returned flag records whether the warm candidate won.
     Every schedule shares one {!Greedy.pass}: the frozen tasks' profiles are
     built once per call. *)
  let starting_incumbent ~(options : Cp.Solver.options) ?warm ?lb inst =
    let pass = Greedy.prepare inst in
    let cold () = (greedy_seed ~ordering:options.Cp.Solver.ordering pass inst, false) in
    match warm with
    | None -> cold ()
    | Some inc -> (
        match warm_in pass inst inc with
        | None -> cold ()
        | Some warm
          when (match lb with
               | Some b -> warm.Solution.late_jobs <= b
               | None -> false) ->
            (warm, true)
        | Some warm ->
            let preferred = Greedy.schedule ~order:options.Cp.Solver.ordering pass in
            if not (Solution.better preferred warm) then (warm, true)
            else
              ( greedy_seed ~preferred ~ordering:options.Cp.Solver.ordering pass inst,
                false ))
end

(* --- matchmaking (formerly Mrcp.Matchmaker, the whole module) -------------- *)

module Matchmaker = struct
  module T = Mapreduce.Types

  type slot_state = {
    slot_id : int;
    resource_id : int;
    mutable available_from : int;
  }

  type t = {
    map_slots : slot_state array;
    reduce_slots : slot_state array;
    mutable last_map_start : int;
    mutable last_reduce_start : int;
  }

  let slots_of cluster select =
    let slots = ref [] in
    let next = ref 0 in
    Array.iter
      (fun (r : T.resource) ->
        for _ = 1 to select r do
          slots :=
            { slot_id = !next; resource_id = r.T.res_id; available_from = min_int }
            :: !slots;
          incr next
        done)
      cluster;
    Array.of_list (List.rev !slots)

  let create ~cluster =
    {
      map_slots = slots_of cluster (fun r -> r.T.map_capacity);
      reduce_slots = slots_of cluster (fun r -> r.T.reduce_capacity);
      last_map_start = min_int;
      last_reduce_start = min_int;
    }

  let map_slot_count t = Array.length t.map_slots
  let reduce_slot_count t = Array.length t.reduce_slots

  let slots_for t = function
    | T.Map_task -> t.map_slots
    | T.Reduce_task -> t.reduce_slots

  let disable_resource t ~resource_id =
    let disable slots =
      Array.iter
        (fun s -> if s.resource_id = resource_id then s.available_from <- max_int)
        slots
    in
    disable t.map_slots;
    disable t.reduce_slots

  let occupy t ~kind ~slot ~until =
    let slots = slots_for t kind in
    if slot < 0 || slot >= Array.length slots then
      invalid_arg "Matchmaker.occupy: slot out of range";
    let s = slots.(slot) in
    if until > s.available_from then s.available_from <- until

  let unit_demand_only =
    "Matchmaker.assign: only unit capacity requirements are supported (the \
     paper's q_t = 1); tasks with q_t > 1 cannot be matched to unit slots"

  let check_unit_demands jobs =
    let unit (task : T.task) = task.T.capacity_req = 1 in
    if
      List.for_all
        (fun (j : T.job) ->
          Array.for_all unit j.T.map_tasks && Array.for_all unit j.T.reduce_tasks)
        jobs
    then Ok ()
    else Error unit_demand_only

  let assign t ~kind ~task ~start =
    if task.T.capacity_req <> 1 then invalid_arg unit_demand_only;
    let slots = slots_for t kind in
    (match kind with
    | T.Map_task ->
        assert (start >= t.last_map_start);
        t.last_map_start <- start
    | T.Reduce_task ->
        assert (start >= t.last_reduce_start);
        t.last_reduce_start <- start);
    (* Best fit: among slots free by [start], take the one freed latest
       (smallest remaining gap, paper §V.D). *)
    let best = ref (-1) in
    for i = 0 to Array.length slots - 1 do
      let s = slots.(i) in
      if
        s.available_from <= start
        && (!best < 0 || slots.(!best).available_from < s.available_from)
      then best := i
    done;
    if !best < 0 && task.T.exec_time = 0 then begin
      (* a zero-length task occupies nothing, so the combined schedule may
         start it while every slot is busy: it goes on the first slot of a
         live resource, which it leaves as it was *)
      let live = ref (-1) in
      Array.iteri
        (fun i s -> if !live < 0 && s.available_from < max_int then live := i)
        slots;
      if !live < 0 then
        failwith
          (Printf.sprintf "Matchmaker.assign: no live %s slot for task %d"
             (T.task_kind_to_string kind) task.T.task_id);
      let s = slots.(!live) in
      {
        Sched.Dispatch.task;
        resource_id = s.resource_id;
        slot = s.slot_id;
        start;
      }
    end
    else if !best < 0 then
      failwith
        (Printf.sprintf
           "Matchmaker.assign: no free %s slot at %d for task %d (solver \
            capacity bug)"
           (T.task_kind_to_string kind) start task.T.task_id)
    else begin
      let s = slots.(!best) in
      s.available_from <- start + task.T.exec_time;
      { Sched.Dispatch.task; resource_id = s.resource_id; slot = s.slot_id; start }
    end

  let assign_all ?(on_assign = fun _ _ -> ()) t ~starts ~tasks =
    if Array.length starts <> Array.length tasks then
      invalid_arg "Matchmaker.assign_all: one start per task expected";
    let order = Array.init (Array.length tasks) Fun.id in
    Array.stable_sort
      (fun a b ->
        let c = Int.compare starts.(a) starts.(b) in
        if c <> 0 then c else Int.compare tasks.(a).T.task_id tasks.(b).T.task_id)
      order;
    let dispatches = ref [] in
    Array.iter
      (fun k ->
        let task = tasks.(k) in
        let d = assign t ~kind:task.T.kind ~task ~start:starts.(k) in
        on_assign k d;
        dispatches := d :: !dispatches)
      order;
    List.rev !dispatches

  let spread_evenly ~slots ~over =
    if over <= 0 then invalid_arg "Matchmaker.spread_evenly: over must be > 0";
    if slots < 0 then invalid_arg "Matchmaker.spread_evenly: negative slots";
    let base = slots / over and extra = slots mod over in
    (* the paper gives the larger share to the tail of the list: 100 over 30 ->
       twenty 3s then ten 4s *)
    Array.init over (fun i -> if i < over - extra then base else base + 1)
end
