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

(* [id]'s binding, or [default]: a lookup that allocates no option *)
let find_or tbl id ~default =
  match Ids.find tbl id with v -> v | exception Not_found -> default

type task_slot = {
  t_var : Store.var;
  t_task : T.task;
  t_is_map : bool;
  (* the start's search view, made once: the task's duration and its job's
     deadline do not change while the store holds it *)
  t_info : Search.start_info;
  mutable t_state : task_state;
  (* generation mark: tasks not seen by the current sync have completed *)
  mutable t_gen : int;
}

type job_slot = {
  j_late : Store.var;
  j_view : Store.var * int;  (* (N_j, d_j), the search's late view *)
  j_tasks : task_slot array;
  mutable j_gen : int;
}

(* A job's slot is keyed by its id while the job is live: the sync that
   sees it gone retires its last tasks and drops the slot, so the table
   stays the size of the open work rather than of the history.  Its task
   slots live in the job slot alone: a sync finds them through it. *)
type core = {
  store : Store.t;
  horizon : int;  (* map-start maximum; headroom over the creation need *)
  value_horizon : int;  (* reduce-start / lfmt maximum *)
  map_pool : Propagators.dyn_pool;
  reduce_pool : Propagators.dyn_pool;
  bound : int ref;  (* max_int between searches: the cut is disarmed *)
  objective : Propagators.dyn_sum;
  jobs : job_slot Ids.t;  (* job id -> slot, live jobs only *)
  mutable generation : int;  (* bumped by every sync *)
  (* the search views of the last synced instance, written by the sync
     walk: its pending tasks' slots and start views by task index, and its
     jobs' late views in order *)
  mutable view : task_slot array;
  mutable starts : Search.start_info array;
  mutable lates : (Store.var * int) array;
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
  c_lates : (int * int) Ids.t;
      (* certificate job id -> (lateness, completion) under the last
         dispatched plan *)
}

type t = {
  mutable core : core option;
  mutable cert : cert option;
  (* task id -> its start in the last plan returned that placed it: a
     pending task's warm start, and where a completed one ran until the
     store retires it *)
  plan : int ref Ids.t;
  (* the jobs whose plan is kept, by id: those of the last solved instance,
     and those that left while the store still held them *)
  mutable kept : T.job Ids.t;
  (* the next pass's [present], empty between passes; it swaps with
     [kept] when the pass records its plan *)
  mutable spare : T.job Ids.t;
  (* the list schedules' working profiles, reused pass after pass *)
  scratch : Sched.Greedy.scratch;
  mutable cert_proofs : int;
  mutable retracted : int;
  mutable appended : int;
  mutable rebuilds : int;
}

(* The recorded start of a task no plan placed; never written *)
let unplanned = ref min_int

let create () =
  {
    core = None;
    cert = None;
    plan = Ids.create 16;
    kept = Ids.create 16;
    spare = Ids.create 16;
    scratch = Sched.Greedy.scratch ();
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

type footprint = { root_trail : int; job_slots : int; task_slots : int }

(* --- store construction --------------------------------------------------- *)

let no_info = { Search.svar = 0; duration = 0; deadline = 0 }

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
    t_info = no_info;
    t_state = Retired;
    t_gen = -1;
  }

let no_job_slot = { j_late = -1; j_view = (-1, 0); j_tasks = [||]; j_gen = -1 }

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
    jobs = Ids.create 16;
    generation = 0;
    view = [||];
    starts = [||];
    lates = [||];
    harvested = None;
  }

(* fresh views for the instance a sync is about to walk *)
let open_views core (inst : Instance.t) =
  let n = Instance.pending_task_count inst in
  core.view <- Array.make n no_slot;
  core.starts <- Array.make n no_info;
  core.lates <- Array.make (Array.length inst.Instance.jobs) (-1, 0)

(* a pending task's slot at task index [k] of the views *)
let[@inline] set_view core k sl =
  core.view.(k) <- sl;
  core.starts.(k) <- sl.t_info

(* Append one job's constraint block — the Table-1 rows of Model.build, with
   two differences: frozen tasks become root-fixed variables (so they live
   in the same dynamic pool registries their pending siblings do), and the
   pool/objective propagators are the session's dynamic registries. *)
let append_job t core (inst : Instance.t) jdx =
  let pj = inst.Instance.jobs.(jdx) in
  let s = core.store in
  let est = pj.Instance.est in
  let deadline = pj.Instance.job.T.deadline in
  let gen = core.generation in
  let mk_slot ~is_map ~state var (task : T.task) =
    {
      t_var = var;
      t_task = task;
      t_is_map = is_map;
      t_info = { Search.svar = var; duration = task.T.exec_time; deadline };
      t_state = state;
      t_gen = gen;
    }
  in
  let mk_pending ~is_map ~vmax task =
    mk_slot ~is_map ~state:Pending (Store.new_var s ~min:est ~max:vmax) task
  in
  let mk_fixed ~is_map (f : Instance.fixed_task) =
    let start = f.Instance.start in
    mk_slot ~is_map ~state:Frozen
      (Store.new_var s ~min:start ~max:start)
      f.Instance.task
  in
  let off = inst.Instance.first.(jdx) in
  let pending_maps =
    Array.map (mk_pending ~is_map:true ~vmax:core.horizon)
      pj.Instance.pending_maps
  in
  Array.iteri (fun i sl -> set_view core (off + i) sl) pending_maps;
  let maps =
    Array.append pending_maps
      (Array.map (mk_fixed ~is_map:true) pj.Instance.fixed_maps)
  in
  let lfmt = Store.new_var s ~min:0 ~max:core.value_horizon in
  Propagators.max_of s ~result:lfmt
    ~vars:(Array.map (fun sl -> sl.t_var) maps)
    ~offsets:(Array.map (fun sl -> sl.t_task.T.exec_time) maps)
    ~floor:(max pj.Instance.frozen_lfmt est);
  let pending_reduces =
    Array.map
      (mk_pending ~is_map:false ~vmax:core.value_horizon)
      pj.Instance.pending_reduces
  in
  let roff = off + Array.length pending_maps in
  Array.iteri (fun i sl -> set_view core (roff + i) sl) pending_reduces;
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
  let n_reduces = Array.length reduces in
  Propagators.max_of s ~result:completion
    ~vars:
      (Array.init (n_reduces + 1) (fun i ->
           if i = 0 then lfmt else reduces.(i - 1).t_var))
    ~offsets:
      (Array.init (n_reduces + 1) (fun i ->
           if i = 0 then 0 else reduces.(i - 1).t_task.T.exec_time))
    ~floor:pj.Instance.frozen_completion;
  let late = Store.new_var s ~min:0 ~max:1 in
  Propagators.lateness s ~late ~completion ~deadline;
  Propagators.dyn_sum_add core.objective s late;
  let slot =
    {
      j_late = late;
      j_view = (late, deadline);
      j_tasks = Array.append maps reduces;
      j_gen = gen;
    }
  in
  Array.iter
    (fun sl ->
      let pool = if sl.t_is_map then core.map_pool else core.reduce_pool in
      Propagators.dyn_add pool s
        {
          Propagators.start = sl.t_var;
          duration = sl.t_task.T.exec_time;
          demand = sl.t_task.T.capacity_req;
        })
    slot.j_tasks;
  (* tasks that completed before the store held the job are never retired:
     their recorded starts go now.  When the store holds every task of the
     job, none did. *)
  let job = pj.Instance.job in
  let n_held = Array.length slot.j_tasks in
  if n_held < Array.length job.T.map_tasks + Array.length job.T.reduce_tasks
  then begin
    let held = Ids.create n_held in
    Array.iter (fun sl -> Ids.replace held sl.t_task.T.task_id ()) slot.j_tasks;
    let forget_done (task : T.task) =
      let id = task.T.task_id in
      if not (Ids.mem held id) then Ids.remove t.plan id
    in
    Array.iter forget_done job.T.map_tasks;
    Array.iter forget_done job.T.reduce_tasks
  end;
  Ids.replace core.jobs pj.Instance.job.T.id slot;
  core.lates.(jdx) <- slot.j_view;
  t.appended <- t.appended + 1

(* A task left the instance: it completed.  Fix a pending one at its last
   planned start, where it ran (inside the root domain: the plan was a
   solution of this very store), and remove it from its pool registry — its
   execution window ends at or before [now], every pending est is at least
   [now], so the removal never loosens the profile any still-movable task
   sees.  Nothing reads its recorded start after this, so the entry goes
   too.  Its slot stays in its job's, marked retired, until the job's slot
   goes. *)
let retire_task t core sl =
  if sl.t_state <> Retired then begin
    let s = core.store in
    let id = sl.t_task.T.task_id in
    if sl.t_state = Pending then begin
      match find_or t.plan id ~default:unplanned with
      | start when start != unplanned -> Store.fix s sl.t_var !start
      | _ -> raise (Store.Fail "session: completed task has no known start")
    end;
    Ids.remove t.plan id;
    let pool = if sl.t_is_map then core.map_pool else core.reduce_pool in
    Propagators.dyn_retire pool s sl.t_var;
    sl.t_state <- Retired;
    t.retracted <- t.retracted + 1
  end

(* The live slot of the job's task [id], searched in the job's slots from
   [!cursor] on, wrapping around.  A sync walks a job's tasks in the order
   [append_job] laid its slots out (each phase last-first, pending before
   running, maps before reduces) minus the tasks that left, so the search
   mostly hits at the cursor, and this beats a table lookup per task.  An
   id that is no live task of the job fails the sync, which then rebuilds
   the store. *)
let job_task slot cursor id =
  let tasks = slot.j_tasks in
  let n = Array.length tasks in
  let k = ref !cursor and left = ref n in
  while
    !left > 0
    &&
    let sl = tasks.(!k) in
    sl.t_task.T.task_id <> id || sl.t_state = Retired
  do
    incr k;
    if !k = n then k := 0;
    decr left
  done;
  if !left = 0 then raise (Store.Fail "session: task not held by its job");
  cursor := if !k + 1 = n then 0 else !k + 1;
  tasks.(!k)

(* Diff one already-known job against its instance row: bump pending ests
   (est = max(s_j, now) only grows), fix newly frozen tasks at their
   dispatched starts, retire tasks that no longer appear (completed). *)
let sync_job t core (inst : Instance.t) jdx slot =
  let pj = inst.Instance.jobs.(jdx) in
  let s = core.store in
  let est = pj.Instance.est in
  let gen = core.generation in
  slot.j_gen <- gen;
  core.lates.(jdx) <- slot.j_view;
  let cursor = ref 0 in
  let off = inst.Instance.first.(jdx) in
  let bump k (task : T.task) =
    let sl = job_task slot cursor task.T.task_id in
    sl.t_gen <- gen;
    set_view core k sl;
    Store.set_min s sl.t_var est
  in
  let maps = pj.Instance.pending_maps in
  for i = 0 to Array.length maps - 1 do
    bump (off + i) maps.(i)
  done;
  let roff = off + Array.length maps
  and reduces = pj.Instance.pending_reduces in
  for i = 0 to Array.length reduces - 1 do
    bump (roff + i) reduces.(i)
  done;
  let freeze (f : Instance.fixed_task) =
    let sl = job_task slot cursor f.Instance.task.T.task_id in
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
        let slot =
          find_or core.jobs pj.Instance.job.T.id ~default:no_job_slot
        in
        if slot == no_job_slot then append_job t core inst jdx
        else sync_job t core inst jdx slot)
      inst.Instance.jobs;
    (* [core.jobs] holds live jobs only, so this walk is the size of the
       last instance plus the arrivals *)
    let departed = ref [] in
    Ids.iter
      (fun id slot ->
        if slot.j_gen <> core.generation then
          departed := (id, slot) :: !departed)
      core.jobs;
    List.iter
      (fun (_, slot) -> Array.iter (retire_task t core) slot.j_tasks)
      !departed;
    Store.propagate core.store;
    if !departed <> [] then begin
      List.iter
        (fun (id, slot) ->
          (* with every task fixed, propagation fixed the completion chain
             and hence the lateness variable *)
          if not (Store.is_fixed core.store slot.j_late) then
            raise (Store.Fail "session: departed job with open lateness");
          Propagators.dyn_sum_remove core.objective core.store slot.j_late;
          Ids.remove core.jobs id)
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
   holds [inst]'s jobs by id; [pass] knows their solo dooms. *)
let cert_lower_bound t ~present ~pass (inst : Instance.t) =
  match t.cert with
  | None -> min_int
  | Some c ->
      let bound = ref c.c_bound and applicable = ref true in
      Ids.iter
        (fun id (late, completion) ->
          if not (Ids.mem present id) then
            if completion <= inst.Instance.now then bound := !bound - late
            else applicable := false)
        c.c_lates;
      (* jobs outside the certificate set add their solo dooms: a job that
         cannot meet its deadline even alone is late in every schedule,
         independently of the certificate jobs — the two bounds add *)
      Array.iteri
        (fun jdx (pj : Instance.pending_job) ->
          if
            (not (Ids.mem c.c_lates pj.Instance.job.T.id))
            && Solver.doomed pass jdx
          then incr bound)
        inst.Instance.jobs;
      if !applicable then !bound else min_int

(* Record what the plan being installed means for each job: its lateness
   and completion under that plan.  A proved solve re-grounds the whole
   certificate on the instance (in the table the old one used); an
   unproved one may only refresh recorded jobs (the proof does not cover
   newcomers). *)
let update_cert t ~proved (inst : Instance.t) (sol : Solution.t) =
  let entry jdx (pj : Instance.pending_job) =
    let completion = Solution.job_completion inst jdx sol.Solution.starts in
    let late = if completion > pj.Instance.job.T.deadline then 1 else 0 in
    (late, completion)
  in
  if proved then begin
    let lates =
      match t.cert with
      | Some c ->
          Ids.clear c.c_lates;
          c.c_lates
      | None -> Ids.create 16
    in
    Array.iteri
      (fun jdx (pj : Instance.pending_job) ->
        Ids.replace lates pj.Instance.job.T.id (entry jdx pj))
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
            if Ids.mem c.c_lates id then
              Ids.replace c.c_lates id (entry jdx pj))
          inst.Instance.jobs

(* --- the solve ------------------------------------------------------------ *)

(* The session's exact search over the store [sync] just brought in line
   with [inst], on the views the sync walk wrote: arm the objective bound
   inside a guard level and search. *)
let search_core core (inst : Instance.t) ~propose ~bound_to_beat limits =
  let s = core.store in
  let view = core.view in
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
          starts = core.starts;
          lates = core.lates;
          bound = core.bound;
          bound_pid = Propagators.dyn_sum_pid core.objective;
          extract;
          propose = Some propose;
        }
      in
      Search.run_problem problem limits)

(* One walk over [inst] before the solve: its jobs by id into [present]
   (the session's spare table, emptied), each pending task's recorded-start
   cell ([unplanned] when no plan placed it), and the warm start.  A
   pending task carries its recorded start while that is still ahead of the
   clock: a start the clock has passed belongs to an attempt a fault lost.
   The changed jobs are those the last solved instance did not have.  The
   warm start is [None] when nothing is carried. *)
let open_pass t ~tasks (inst : Instance.t) =
  let present = t.spare in
  Ids.clear present;
  let n = Array.length tasks in
  let cells = Array.make n unplanned and carried = Array.make n min_int in
  let now = inst.Instance.now and first = inst.Instance.first in
  let any = ref false and changed = ref [] in
  Array.iteri
    (fun jdx (pj : Instance.pending_job) ->
      let id = pj.Instance.job.T.id in
      Ids.replace present id pj.Instance.job;
      if not (Ids.mem t.kept id) then changed := id :: !changed;
      for k = first.(jdx) to first.(jdx + 1) - 1 do
        let cell = find_or t.plan tasks.(k).T.task_id ~default:unplanned in
        cells.(k) <- cell;
        if !cell > now then begin
          carried.(k) <- !cell;
          any := true
        end
      done)
    inst.Instance.jobs;
  let warm =
    if !any then
      Some { Solver.carried_starts = carried; changed_jobs = !changed }
    else None
  in
  (present, cells, warm)

(* Every returned plan is dispatched: record its starts.  A job that has
   left keeps its plan while the store holds its slot (the sync that
   retires its tasks fixes them at these starts, and drops the slot);
   [present], the solved instance's jobs, becomes the kept set, and the old
   kept set the next pass's spare. *)
let record t ~present ~tasks ~cells (sol : Solution.t) =
  Array.iteri
    (fun k start ->
      let planned = sol.Solution.starts.(k) in
      if start == unplanned then
        Ids.replace t.plan tasks.(k).T.task_id (ref planned)
      else start := planned)
    cells;
  let held id =
    match t.core with Some core -> Ids.mem core.jobs id | None -> false
  in
  Ids.iter
    (fun id (job : T.job) ->
      if Ids.mem present id then ()
      else if held id then Ids.replace present id job
      else
        let forget (task : T.task) = Ids.remove t.plan task.T.task_id in
        Array.iter forget job.T.map_tasks;
        Array.iter forget job.T.reduce_tasks)
    t.kept;
  (* emptied now, not at the next pass: between passes it holds no jobs *)
  Ids.clear t.kept;
  t.spare <- t.kept;
  t.kept <- present

let reset t =
  t.core <- None;
  t.cert <- None

let stats_footprint t =
  match t.core with
  | None -> { root_trail = 0; job_slots = 0; task_slots = 0 }
  | Some core ->
      let task_slots = ref 0 in
      Ids.iter
        (fun _ slot -> task_slots := !task_slots + Array.length slot.j_tasks)
        core.jobs;
      {
        root_trail = Store.trail_length core.store;
        job_slots = Ids.length core.jobs;
        task_slots = !task_slots;
      }

let solve ?wrap_leaf t ~options (inst : Instance.t) =
  let t0 = Obs.Clock.now () in
  let words0 = Gc.minor_words () in
  let retracted0 = t.retracted
  and appended0 = t.appended
  and rebuilds0 = t.rebuilds in
  let pass = Solver.prepare ~scratch:t.scratch inst in
  let tasks = Solver.pass_tasks pass in
  (* one lookup per pending task: [record] writes through the same cells *)
  let present, cells, warm = open_pass t ~tasks inst in
  let carried_bound = cert_lower_bound t ~present ~pass inst in
  (* The exact backend is the only place that syncs the store, so a pass
     the fast path or LNS settles never pays for a diff ([sync] is a diff
     against the instance, not an event log: a skipped pass folds into the
     next searching one's). *)
  let searched = ref None and leaf = ref (0, 0, 0) in
  let exact ~registry ~bound_to_beat limits =
    let t_sync = Obs.Clock.now () in
    let core = sync t inst in
    let sync_s = Obs.Clock.now () -. t_sync in
    searched := Some core;
    if registry <> None then Store.set_instrumented core.store true;
    let propose = Solver.list_leaf pass in
    let propose =
      match wrap_leaf with Some wrap -> wrap propose | None -> propose
    in
    let outcome = search_core core inst ~propose ~bound_to_beat limits in
    leaf :=
      Search.(outcome.leaf_asked, outcome.leaf_tried, outcome.leaf_accepted);
    (outcome, sync_s)
  in
  (* what a returned plan leaves for the next instance; [via_cert] for a
     proof the classic bound alone could not have delivered *)
  let on_settle registry sol (st : Solver.stats) =
    record t ~present ~tasks ~cells sol;
    update_cert t ~proved:st.Solver.proved_optimal inst sol;
    let via_cert = st.Solver.stop_reason = Obs.Solve_stats.Hit_carried_bound in
    if via_cert then t.cert_proofs <- t.cert_proofs + 1;
    Option.iter
      (fun r ->
        let count name v = Obs.Metrics.add (Obs.Metrics.counter r name) v in
        count "session/retracted" (t.retracted - retracted0);
        count "session/appended_jobs" (t.appended - appended0);
        count "session/rebuilds" (t.rebuilds - rebuilds0);
        count "session/cert_proofs" (Bool.to_int via_cert);
        let asked, tried, accepted = !leaf in
        count "search/leaf_asked" asked;
        count "search/leaf_tried" tried;
        count "search/leaf_accepted" accepted;
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
  Solver.solve ~options ~t0 ~pass ~carried_bound ?warm ~exact ~on_settle inst
