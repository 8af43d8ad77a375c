(* Persistent solver session: one store per manager, mutated between
   invocations instead of rebuilt.  See session.mli for the contract and
   the soundness argument of each piece. *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution

type task_state = Pending | Frozen | Retired

(* by task or job id, on every pass: no polymorphic hash or compare *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

type task_slot = {
  t_var : Store.var;
  t_task : T.task;
  t_is_map : bool;
  mutable t_state : task_state;
  (* generation mark: tasks not seen by the current sync have completed *)
  mutable t_gen : int;
}

type job_slot = {
  j_late : Store.var;
  j_tasks : task_slot array;
  mutable j_active : bool;
  mutable j_gen : int;
}

type core = {
  store : Store.t;
  horizon : int;  (* map-start maximum; headroom over the creation need *)
  value_horizon : int;  (* reduce-start / lfmt maximum *)
  map_pool : Propagators.dyn_pool;
  reduce_pool : Propagators.dyn_pool;
  bound : int ref;  (* max_int between searches: the cut is disarmed *)
  objective : Propagators.dyn_sum;
  jobs : (int, job_slot) Hashtbl.t;  (* job id -> slot *)
  tasks : (int, task_slot) Hashtbl.t;  (* task id -> slot *)
  mutable generation : int;  (* bumped by every sync *)
  (* the last synced instance's slots: its pending tasks by task index, and
     its jobs in order; the search views and [remember] read them *)
  mutable view : task_slot array;
  mutable job_view : job_slot array;
  mutable harvested : Store.telemetry_mark option;
      (* telemetry at the last harvest, for per-invocation deltas *)
}

(* Persistent optimality certificate.  A proved invocation's "no schedule
   beats [c_bound] late jobs" survives the clock: feasible sets only shrink
   as time advances and frozen prefixes grow (both per dispatched plans),
   and appending never-seen jobs cannot lower the remaining jobs' optimum.
   A certificate job that has since completed weakens the bound by exactly
   its realized lateness — so the carried lower bound for a later instance
   is [c_bound - Σ lateness of departed certificate jobs].  [c_lates] is
   refreshed from every installed plan (proved or not), which keeps the
   recorded (lateness, completion) of each certificate job equal to what
   execution will realize; a certificate job that is absent from the
   instance without having completed (deferred) makes the certificate
   inapplicable for that invocation, not invalid. *)
type cert = {
  c_bound : int;  (* proved minimum number of late jobs of the set below *)
  c_lates : (int, int * int) Hashtbl.t;
      (* certificate job id -> (lateness, completion) under the last
         dispatched plan *)
}

type t = {
  domains : int;
  mutable core : core option;
  mutable cert : cert option;
  (* task id -> its start in the last plan returned that placed it: a
     pending task's warm start, and where a completed one ran until the
     store retires it *)
  plan : int ref Ids.t;
  (* the jobs whose plan is kept, by id: those of the last solved instance,
     and those that left while the store still held them *)
  mutable kept : T.job Ids.t;
  mutable cert_proofs : int;
  mutable retracted : int;
  mutable appended : int;
  mutable rebuilds : int;
}

let create ?(domains = 1) () =
  {
    domains;
    core = None;
    cert = None;
    plan = Ids.create 16;
    kept = Ids.create 16;
    cert_proofs = 0;
    retracted = 0;
    appended = 0;
    rebuilds = 0;
  }

let stats_retracted t = t.retracted
let stats_recorded_starts t = Ids.length t.plan
let stats_cert_proofs t = t.cert_proofs
let stats_appended_jobs t = t.appended
let stats_rebuilds t = t.rebuilds

(* --- store construction --------------------------------------------------- *)

let make_core (inst : Instance.t) =
  let store = Store.create () in
  (* Headroom over the creation instance's need, so later instances fit
     without a rebuild until the workload genuinely outgrows it.  A wider
     domain never changes the optimum: any schedule left-shifts into the
     tight horizon without increasing lateness.  [default_horizon] grows
     with the absolute clock, so the multiplicative factor amortizes
     rebuilds to O(log T) over an open stream, and the additive floor keeps
     short-horizon streams (tests, small simulations) from ever rebuilding
     just because the clock ticked past an idle stretch. *)
  let horizon = (4 * Model.default_horizon inst) + 65_536 in
  let value_horizon = 2 * horizon in
  let bound = ref max_int in
  {
    store;
    horizon;
    value_horizon;
    map_pool =
      Propagators.cumulative_dyn store ~capacity:inst.Instance.map_capacity;
    reduce_pool =
      Propagators.cumulative_dyn store ~capacity:inst.Instance.reduce_capacity;
    bound;
    objective = Propagators.sum_lt_bound_dyn store ~bound;
    jobs = Hashtbl.create 64;
    tasks = Hashtbl.create 256;
    generation = 0;
    view = [||];
    job_view = [||];
    harvested = None;
  }

(* fills [view] until a sync writes the real slots *)
let no_slot =
  {
    t_var = -1;
    t_task =
      {
        T.task_id = -1;
        job_id = -1;
        kind = T.Map_task;
        exec_time = 0;
        capacity_req = 0;
      };
    t_is_map = true;
    t_state = Retired;
    t_gen = -1;
  }

let no_job = { j_late = -1; j_tasks = [||]; j_active = false; j_gen = -1 }

(* fresh views for the instance a sync is about to walk *)
let open_views core (inst : Instance.t) =
  core.view <- Array.make (Instance.pending_task_count inst) no_slot;
  core.job_view <- Array.make (Array.length inst.Instance.jobs) no_job

(* Append one job's constraint block — the Table-1 rows of Model.build, with
   two differences: frozen tasks become root-fixed variables (so they live
   in the same dynamic pool registries their pending siblings do), and the
   pool/objective propagators are the session's dynamic registries. *)
let append_job t core (inst : Instance.t) jdx =
  let pj = inst.Instance.jobs.(jdx) in
  let s = core.store in
  let est = pj.Instance.est in
  let gen = core.generation in
  let mk_pending ~is_map ~vmax (task : T.task) =
    {
      t_var = Store.new_var s ~min:est ~max:vmax;
      t_task = task;
      t_is_map = is_map;
      t_state = Pending;
      t_gen = gen;
    }
  in
  let mk_fixed ~is_map (f : Instance.fixed_task) =
    {
      t_var = Store.new_var s ~min:f.Instance.start ~max:f.Instance.start;
      t_task = f.Instance.task;
      t_is_map = is_map;
      t_state = Frozen;
      t_gen = gen;
    }
  in
  let off = inst.Instance.first.(jdx) in
  let pending_maps =
    Array.map (mk_pending ~is_map:true ~vmax:core.horizon)
      pj.Instance.pending_maps
  in
  Array.blit pending_maps 0 core.view off (Array.length pending_maps);
  let maps =
    Array.append pending_maps
      (Array.map (mk_fixed ~is_map:true) pj.Instance.fixed_maps)
  in
  let lfmt = Store.new_var s ~min:0 ~max:core.value_horizon in
  Propagators.max_of s ~result:lfmt
    ~terms:
      (Array.to_list
         (Array.map (fun sl -> (sl.t_var, sl.t_task.T.exec_time)) maps))
    ~floor:(max pj.Instance.frozen_lfmt est);
  let pending_reduces =
    Array.map
      (mk_pending ~is_map:false ~vmax:core.value_horizon)
      pj.Instance.pending_reduces
  in
  Array.blit pending_reduces 0 core.view
    (off + Array.length pending_maps)
    (Array.length pending_reduces);
  (* precedence (3) only for movable reduces: a frozen reduce already ran
     after its maps, and re-imposing lfmt <= start on a fixed variable could
     only fail spuriously *)
  Array.iter
    (fun sl -> Propagators.ge_offset s sl.t_var lfmt 0)
    pending_reduces;
  let reduces =
    Array.append pending_reduces
      (Array.map (mk_fixed ~is_map:false) pj.Instance.fixed_reduces)
  in
  let completion = Store.new_var s ~min:0 ~max:(2 * core.value_horizon) in
  Propagators.max_of s ~result:completion
    ~terms:
      ((lfmt, 0)
      :: Array.to_list
           (Array.map (fun sl -> (sl.t_var, sl.t_task.T.exec_time)) reduces))
    ~floor:pj.Instance.frozen_completion;
  let late = Store.new_var s ~min:0 ~max:1 in
  Propagators.lateness s ~late ~completion
    ~deadline:pj.Instance.job.T.deadline;
  Propagators.dyn_sum_add core.objective s late;
  let slot =
    {
      j_late = late;
      j_tasks = Array.append maps reduces;
      j_active = true;
      j_gen = gen;
    }
  in
  Array.iter
    (fun sl ->
      Hashtbl.replace core.tasks sl.t_task.T.task_id sl;
      let pool = if sl.t_is_map then core.map_pool else core.reduce_pool in
      Propagators.dyn_add pool s
        {
          Propagators.start = sl.t_var;
          duration = sl.t_task.T.exec_time;
          demand = sl.t_task.T.capacity_req;
        })
    slot.j_tasks;
  (* tasks that completed before the store held the job are never retired:
     their recorded starts go now *)
  let job = pj.Instance.job in
  let forget_done (task : T.task) =
    if not (Hashtbl.mem core.tasks task.T.task_id) then
      Ids.remove t.plan task.T.task_id
  in
  Array.iter forget_done job.T.map_tasks;
  Array.iter forget_done job.T.reduce_tasks;
  Hashtbl.replace core.jobs pj.Instance.job.T.id slot;
  core.job_view.(jdx) <- slot;
  t.appended <- t.appended + 1

(* A task left the instance: it completed.  Fix a pending one at its last
   planned start, where it ran (inside the root domain: the plan was a
   solution of this very store), and remove it from its pool registry — its
   execution window ends at or before [now], every pending est is at least
   [now], so the removal never loosens the profile any still-movable task
   sees.  Nothing reads its recorded start after this, so the entry goes
   too. *)
let retire_task t core sl =
  if sl.t_state <> Retired then begin
    let s = core.store in
    let id = sl.t_task.T.task_id in
    if sl.t_state = Pending then begin
      match Ids.find_opt t.plan id with
      | Some start -> Store.fix s sl.t_var !start
      | None -> raise (Store.Fail "session: completed task has no known start")
    end;
    Ids.remove t.plan id;
    let pool = if sl.t_is_map then core.map_pool else core.reduce_pool in
    Propagators.dyn_retire pool s sl.t_var;
    sl.t_state <- Retired;
    t.retracted <- t.retracted + 1
  end

(* Diff one already-known job against its instance row: bump pending ests
   (est = max(s_j, now) only grows), fix newly frozen tasks at their
   dispatched starts, retire tasks that no longer appear (completed). *)
let sync_job t core (inst : Instance.t) jdx slot =
  let pj = inst.Instance.jobs.(jdx) in
  let s = core.store in
  let est = pj.Instance.est in
  let gen = core.generation in
  core.job_view.(jdx) <- slot;
  let bump off i (task : T.task) =
    let sl = Hashtbl.find core.tasks task.T.task_id in
    sl.t_gen <- gen;
    core.view.(off + i) <- sl;
    Store.set_min s sl.t_var est
  in
  let off = inst.Instance.first.(jdx) in
  Array.iteri (bump off) pj.Instance.pending_maps;
  Array.iteri
    (bump (off + Array.length pj.Instance.pending_maps))
    pj.Instance.pending_reduces;
  let freeze (f : Instance.fixed_task) =
    let sl = Hashtbl.find core.tasks f.Instance.task.T.task_id in
    sl.t_gen <- gen;
    if sl.t_state = Pending then begin
      Store.fix s sl.t_var f.Instance.start;
      sl.t_state <- Frozen
    end
  in
  Array.iter freeze pj.Instance.fixed_maps;
  Array.iter freeze pj.Instance.fixed_reduces;
  Array.iter
    (fun sl -> if sl.t_gen <> gen then retire_task t core sl)
    slot.j_tasks

let fresh_core t inst =
  let core = make_core inst in
  open_views core inst;
  Array.iteri (fun jdx _ -> append_job t core inst jdx) inst.Instance.jobs;
  Store.propagate core.store;
  t.core <- Some core;
  core

(* Bring the persistent store in line with the invocation's instance.  Any
   root failure during the diff — a horizon outgrown, a realized start
   outside its domain (which would indicate a propagator bug, but must not
   take the manager down) — falls back to rebuilding from scratch, which is
   exactly a cold solve's store. *)
let sync t (inst : Instance.t) =
  let apply core =
    core.generation <- core.generation + 1;
    open_views core inst;
    Array.iteri
      (fun jdx (pj : Instance.pending_job) ->
        match Hashtbl.find_opt core.jobs pj.Instance.job.T.id with
        | None -> append_job t core inst jdx
        | Some slot ->
            slot.j_gen <- core.generation;
            sync_job t core inst jdx slot)
      inst.Instance.jobs;
    let departed = ref [] in
    Hashtbl.iter
      (fun _ slot ->
        if slot.j_active && slot.j_gen <> core.generation then
          departed := slot :: !departed)
      core.jobs;
    List.iter
      (fun slot -> Array.iter (retire_task t core) slot.j_tasks)
      !departed;
    Store.propagate core.store;
    if !departed <> [] then begin
      List.iter
        (fun slot ->
          (* with every task fixed, propagation fixed the completion chain
             and hence the lateness variable *)
          if not (Store.is_fixed core.store slot.j_late) then
            raise (Store.Fail "session: departed job with open lateness");
          Propagators.dyn_sum_remove core.objective core.store slot.j_late;
          slot.j_active <- false)
        !departed;
      Store.propagate core.store
    end
  in
  match t.core with
  | Some core when Model.default_horizon inst <= core.horizon -> (
      try
        apply core;
        core
      with Store.Fail _ ->
        t.rebuilds <- t.rebuilds + 1;
        fresh_core t inst)
  | Some _ ->
      t.rebuilds <- t.rebuilds + 1;
      fresh_core t inst
  | None -> fresh_core t inst

(* --- persistent optimality certificate ------------------------------------ *)

(* Lower bound the certificate yields for [inst]: [c_bound] minus the
   realized lateness of certificate jobs that have completed and left.
   [min_int] when there is no certificate or it is inapplicable (a
   certificate job absent without a completion on record).  [present]
   holds [inst]'s jobs by id. *)
let cert_lower_bound t ~present (inst : Instance.t) =
  match t.cert with
  | None -> min_int
  | Some c ->
      let bound = ref c.c_bound and applicable = ref true in
      Hashtbl.iter
        (fun id (late, completion) ->
          if not (Ids.mem present id) then
            if completion <= inst.Instance.now then bound := !bound - late
            else applicable := false)
        c.c_lates;
      (* jobs outside the certificate set add their solo dooms: a job that
         cannot meet its deadline even alone is late in every schedule,
         independently of the certificate jobs — the two bounds add *)
      Array.iter
        (fun (pj : Instance.pending_job) ->
          if
            (not (Hashtbl.mem c.c_lates pj.Instance.job.T.id))
            && Solver.job_doomed inst pj
          then incr bound)
        inst.Instance.jobs;
      if !applicable then !bound else min_int

(* Record what the plan being installed means for each job: its lateness
   and completion under that plan.  A proved solve re-grounds the whole
   certificate on the instance; an unproved one may only refresh recorded
   jobs (the proof does not cover newcomers). *)
let update_cert t ~proved (inst : Instance.t) (sol : Solution.t) =
  let entry jdx (pj : Instance.pending_job) =
    let completion = Solution.job_completion inst jdx sol.Solution.starts in
    let late = if completion > pj.Instance.job.T.deadline then 1 else 0 in
    (late, completion)
  in
  if proved then begin
    let lates = Hashtbl.create 64 in
    Array.iteri
      (fun jdx (pj : Instance.pending_job) ->
        Hashtbl.replace lates pj.Instance.job.T.id (entry jdx pj))
      inst.Instance.jobs;
    t.cert <- Some { c_bound = sol.Solution.late_jobs; c_lates = lates }
  end
  else
    match t.cert with
    | None -> ()
    | Some c ->
        Array.iteri
          (fun jdx (pj : Instance.pending_job) ->
            let id = pj.Instance.job.T.id in
            if Hashtbl.mem c.c_lates id then
              Hashtbl.replace c.c_lates id (entry jdx pj))
          inst.Instance.jobs

(* --- the solve ------------------------------------------------------------ *)

(* The session's exact search over the store [sync] just brought in line
   with [inst]: arm the objective bound inside a guard level and search. *)
let search_core ~options core (inst : Instance.t) ~bound_to_beat limits =
  let s = core.store in
  (* search views in the cold model's ordering, the task index *)
  let view = core.view in
  let lates =
    Array.mapi
      (fun jdx (pj : Instance.pending_job) ->
        (core.job_view.(jdx).j_late, pj.Instance.job.T.deadline))
      inst.Instance.jobs
  in
  let n = Array.length view in
  let starts = Array.make n { Search.svar = 0; duration = 0; deadline = 0 } in
  Array.iteri
    (fun jdx (pj : Instance.pending_job) ->
      let deadline = pj.Instance.job.T.deadline in
      let add off i (task : T.task) =
        starts.(off + i) <-
          {
            Search.svar = view.(off + i).t_var;
            duration = task.T.exec_time;
            deadline;
          }
      in
      let off = inst.Instance.first.(jdx) in
      Array.iteri (add off) pj.Instance.pending_maps;
      Array.iteri
        (add (off + Array.length pj.Instance.pending_maps))
        pj.Instance.pending_reduces)
    inst.Instance.jobs;
  let extract () =
    Solution.evaluate inst (Array.map (fun sl -> Store.value s sl.t_var) view)
  in
  (* The armed objective bound lives inside this guard level, so nothing
     objective-relative survives into the root the next sync mutates. *)
  core.bound := bound_to_beat;
  Store.push_level s;
  Fun.protect
    ~finally:(fun () ->
      Store.backtrack_to s 0;
      core.bound := max_int)
    (fun () ->
      Store.schedule s (Propagators.dyn_sum_pid core.objective);
      let problem =
        {
          Search.store = s;
          starts;
          lates;
          bound = core.bound;
          bound_pid = Propagators.dyn_sum_pid core.objective;
          extract;
        }
      in
      Search.run_problem ~tie_break:options.Solver.tie_break problem limits)

(* The recorded start of a task no plan placed; never written *)
let unplanned = ref min_int

(* The warm start for [inst] from [cells], its pending tasks' recorded
   starts.  A pending task carries its recorded start while that is still
   ahead of the clock: a start the clock has passed belongs to an attempt a
   fault lost.  The changed jobs are those the last solved instance did not
   have.  [None] when nothing is carried. *)
let carried_plan t ~cells (inst : Instance.t) =
  let carry start = if !start > inst.Instance.now then !start else min_int in
  let starts = Array.map carry cells in
  if Array.for_all (( = ) min_int) starts then None
  else
    let changed acc (pj : Instance.pending_job) =
      let id = pj.Instance.job.T.id in
      if Ids.mem t.kept id then acc else id :: acc
    in
    let changed_jobs = Array.fold_left changed [] inst.Instance.jobs in
    Some { Solver.carried_starts = starts; changed_jobs }

(* Every returned plan is dispatched: record its starts.  A job that has
   left keeps its plan while the store holds it (the sync that retires its
   tasks fixes them at these starts); [present], the solved instance's jobs,
   becomes the kept set. *)
let record t ~present ~tasks ~cells (sol : Solution.t) =
  Array.iteri
    (fun k start ->
      let planned = sol.Solution.starts.(k) in
      if start == unplanned then
        Ids.add t.plan tasks.(k).T.task_id (ref planned)
      else start := planned)
    cells;
  let held id =
    match Option.map (fun core -> Hashtbl.find_opt core.jobs id) t.core with
    | Some (Some slot) -> slot.j_active
    | _ -> false
  in
  Ids.iter
    (fun id (job : T.job) ->
      if Ids.mem present id then ()
      else if held id then Ids.add present id job
      else
        let forget (task : T.task) = Ids.remove t.plan task.T.task_id in
        Array.iter forget job.T.map_tasks;
        Array.iter forget job.T.reduce_tasks)
    t.kept;
  t.kept <- present

let reset t =
  t.core <- None;
  t.cert <- None

let solve t ~options (inst : Instance.t) =
  let t0 = Obs.Clock.now () in
  let words0 = Gc.minor_words () in
  let retracted0 = t.retracted
  and appended0 = t.appended
  and rebuilds0 = t.rebuilds in
  let present = Ids.create (Array.length inst.Instance.jobs) in
  Array.iter
    (fun (pj : Instance.pending_job) ->
      Ids.add present pj.Instance.job.T.id pj.Instance.job)
    inst.Instance.jobs;
  let tasks = Instance.pending_tasks inst in
  (* one lookup per pending task: [record] writes through the same cells *)
  let cells =
    Array.map
      (fun (task : T.task) ->
        try Ids.find t.plan task.T.task_id with Not_found -> unplanned)
      tasks
  in
  let warm = carried_plan t ~cells inst in
  let carried_bound = cert_lower_bound t ~present inst in
  (* what a returned plan leaves for the next instance; [true] for a proof
     the classic bound alone could not have delivered *)
  let keep sol (st : Solver.stats) =
    record t ~present ~tasks ~cells sol;
    update_cert t ~proved:st.Solver.proved_optimal inst sol;
    let via_cert = st.Solver.stop_reason = Obs.Solve_stats.Hit_carried_bound in
    if via_cert then t.cert_proofs <- t.cert_proofs + 1;
    via_cert
  in
  if t.domains > 1 then begin
    let sol, ps =
      Portfolio.solve ~domains:t.domains ~options ?warm ~carried_bound inst
    in
    ignore (keep sol ps.Portfolio.base : bool);
    (sol, ps.Portfolio.base)
  end
  else
    (* The exact backend is the only place that syncs the store, so a pass
       the fast path or LNS settles never pays for a diff ([sync] is a diff
       against the instance, not an event log: a skipped pass folds into
       the next searching one's). *)
    let searched = ref None in
    let exact ~registry ~bound_to_beat limits =
      let t_sync = Obs.Clock.now () in
      let core = sync t inst in
      let sync_s = Obs.Clock.now () -. t_sync in
      searched := Some core;
      if registry <> None then Store.set_instrumented core.store true;
      (search_core ~options core inst ~bound_to_beat limits, sync_s)
    in
    let on_settle registry sol st =
      let via_cert = keep sol st in
      Option.iter
        (fun r ->
          let count name v = Obs.Metrics.add (Obs.Metrics.counter r name) v in
          count "session/retracted" (t.retracted - retracted0);
          count "session/appended_jobs" (t.appended - appended0);
          count "session/rebuilds" (t.rebuilds - rebuilds0);
          count "session/cert_proofs" (Bool.to_int via_cert);
          count "store/words_allocated"
            (int_of_float (Gc.minor_words () -. words0));
          (* harvested after the words count, which measures the solve and
             not its telemetry; the store's counters run from the last
             harvest, so the diff and the search of this pass are counted *)
          Option.iter
            (fun core ->
              Store.harvest ?since:core.harvested r core.store;
              core.harvested <- Some (Store.telemetry_mark core.store))
            !searched)
        registry
    in
    Solver.solve_linked ~options ~link:Solver.null_link ~t0 ~carried_bound
      ?warm ~exact ~on_settle inst
