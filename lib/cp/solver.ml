module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution
module Greedy = Sched.Greedy

type incumbent = { carried_starts : int array; changed_jobs : int list }

type options = {
  ordering : Greedy.order;
  exact_task_limit : int;
  fail_limit : int;
  time_limit : float;
  lns_neighbors : int;
  lns_max_stall : int;
  seed : int;
  instrument : bool;
}

let default_options =
  {
    ordering = Greedy.Edf;
    exact_task_limit = 120;
    fail_limit = 20_000;
    time_limit = 0.5;
    lns_neighbors = 4;
    lns_max_stall = 12;
    seed = 0;
    instrument = false;
  }

type stats = Obs.Solve_stats.t = {
  seed_late : int;
  lower_bound : int;
  proved_optimal : bool;
  warm_seeded : bool;
  stop_reason : Obs.Solve_stats.stop_reason;
  nodes : int;
  failures : int;
  lns_moves : int;
  elapsed : float;
  seed_s : float;
  bound_s : float;
  warm_s : float;
  list_s : float;
  sync_s : float;
  search_s : float;
  metrics : Obs.Metrics.snapshot option;
}

let pp_stats = Obs.Solve_stats.pp

(* Wave-based lower bound on the span of a task set under a capacity:
   no schedule can beat the longest task, nor total-work/capacity. *)
let wave_bound (tasks : T.task array) capacity =
  if Array.length tasks = 0 then 0
  else begin
    let total = ref 0 and longest = ref 0 in
    for i = 0 to Array.length tasks - 1 do
      let t = tasks.(i) in
      total := !total + (t.T.exec_time * t.T.capacity_req);
      if t.T.exec_time > !longest then longest := t.T.exec_time
    done;
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

(* What one pass's seed work shares: the list schedules' pass (pending
   tasks, frozen profiles, sort orders), each job's solo doom, read by the
   classic bound, the doomed-last sequence and the session's certificate
   bound, and the wall time it took to build. *)
type pass = {
  inst : Instance.t;
  greedy : Greedy.pass;
  dooms : bool array;
  lb_classic : int;
  prepare_s : float;
}

let prepare ?scratch (inst : Instance.t) =
  let t0 = Obs.Clock.now () in
  let greedy = Greedy.prepare ?scratch inst in
  let dooms = Array.map (job_doomed inst) inst.Instance.jobs in
  let lb_classic =
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dooms
  in
  { inst; greedy; dooms; lb_classic; prepare_s = Obs.Clock.now () -. t0 }

let pass_tasks p = Greedy.tasks p.greedy
let schedules_run p = Greedy.schedules_run p.greedy
let late_lower_bound p = p.lb_classic
let doomed p jdx = p.dooms.(jdx)

(* EDF sequence with provably-doomed jobs pushed last: a job that cannot meet
   its deadline in any schedule should not take resources ahead of savable
   ones — the sacrifice the CP objective makes naturally, pre-baked into a
   seed.  The order on (doomed, deadline, id): the savable jobs in EDF
   order, then the doomed ones in EDF order. *)
let doomed_last_sequence p =
  let edf = Greedy.edf_order p.greedy in
  let seq = Array.make (Array.length edf) 0 and k = ref 0 in
  let take doomed =
    Array.iter
      (fun jdx ->
        if p.dooms.(jdx) = doomed then begin
          seq.(!k) <- jdx;
          incr k
        end)
      edf
  in
  take false;
  take true;
  seq

(* The exact search's list-schedule leaf ({!Search.problem.propose}), the
   doomed-last sequence's counterpart inside the tree: given each job's
   lateness decision, the jobs decided on time go first in EDF order, then
   the jobs decided late, least pending work first (ties in EDF order), so
   that the small ones still finish soon.  Both orders are sorted once per
   search.

   The sequence then repairs itself: while some job decided on time ends
   late, the first such job in the sequence moves to the front of the
   on-time block and the jobs are list-scheduled again, unless it is at the
   front already or has jumped before in this ask.  Each job jumps at most
   once, so an ask runs at most (on-time jobs + 1) schedules; it returns
   the best plan seen. *)
let list_leaf p =
  let edf = Greedy.edf_order p.greedy in
  let n = Array.length edf in
  let by_work = Array.copy edf and rank = Array.make n 0 in
  Array.iteri (fun i jdx -> rank.(jdx) <- i) edf;
  Sched.Index_sort.sort by_work ~lo:0 ~hi:n
    ~key:(Array.map Instance.pending_exec_total p.inst.Instance.jobs)
    ~tie:rank;
  let deadlines =
    Array.map
      (fun (j : Instance.pending_job) -> j.Instance.job.T.deadline)
      p.inst.Instance.jobs
  in
  let seq = Array.make n 0 and jumped = Array.make n false in
  fun late ->
    let k = ref 0 in
    let take order decided =
      Array.iter
        (fun jdx ->
          if late.(jdx) = decided then begin
            seq.(!k) <- jdx;
            incr k
          end)
        order
    in
    take edf false;
    let on_time = !k in
    take by_work true;
    Array.fill jumped 0 n false;
    (* the first job of the on-time block that the last schedule left late,
       or [on_time] *)
    let first_late () =
      let i = ref 0 in
      while
        !i < on_time
        && Greedy.completion p.greedy seq.(!i) <= deadlines.(seq.(!i))
      do
        incr i
      done;
      !i
    in
    let rec repair best =
      let i = first_late () in
      if i = 0 || i = on_time || jumped.(seq.(i)) then best
      else begin
        let jdx = seq.(i) in
        Array.blit seq 0 seq 1 i;
        seq.(0) <- jdx;
        jumped.(jdx) <- true;
        let plan = Greedy.schedule_sequence p.greedy seq in
        repair (if Solution.better plan best then plan else best)
      end
    in
    repair (Greedy.schedule_sequence p.greedy seq)

(* Best greedy seed across the orderings (plus the doomed-last variant),
   preferring the configured one on ties.  [?preferred] lets a caller that
   already ran the configured ordering hand the result in. *)
let greedy_seed ?preferred ~ordering p =
  let pass = p.greedy in
  let preferred =
    match preferred with
    | Some sol -> sol
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
  let doomed_last = Greedy.schedule_sequence pass (doomed_last_sequence p) in
  if Solution.better doomed_last best then doomed_last else best

(* Freeze the pending tasks of every non-relaxed job at their incumbent
   start times, producing the LNS subproblem.  A relaxed job keeps its
   pending tasks, so the subproblem's task index lists exactly theirs, job
   by job. *)
let freeze_except (inst : Instance.t) (incumbent : Solution.t) relaxed =
  let jobs =
    Array.mapi
      (fun jdx (j : Instance.pending_job) ->
        if relaxed.(jdx) then j
        else begin
          let freeze off i (task : T.task) =
            { Instance.task; start = incumbent.Solution.starts.(off + i) }
          in
          let off = inst.Instance.first.(jdx) in
          let new_fixed_maps =
            Array.mapi (freeze off) j.Instance.pending_maps
          in
          let new_fixed_reduces =
            Array.mapi
              (freeze (off + Array.length j.Instance.pending_maps))
              j.Instance.pending_reduces
          in
          let completion_of (f : Instance.fixed_task) =
            f.Instance.start + f.Instance.task.T.exec_time
          in
          let fold = Array.fold_left (fun acc f -> max acc (completion_of f)) in
          let frozen_lfmt = fold j.Instance.frozen_lfmt new_fixed_maps in
          let frozen_completion =
            fold (fold (max j.Instance.frozen_completion frozen_lfmt)
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

(* The incumbent with the relaxed jobs' starts replaced by the subproblem
   [sub]'s solution [partial]: job [jdx]'s block of [sub]'s task index is
   either empty (frozen) or the same tasks as its block of [inst]'s. *)
let merge_starts (inst : Instance.t) (sub : Instance.t)
    (incumbent : Solution.t) (partial : Solution.t) =
  let merged = Array.copy incumbent.Solution.starts in
  for jdx = 0 to Array.length sub.Instance.jobs - 1 do
    let from = sub.Instance.first.(jdx) in
    let len = sub.Instance.first.(jdx + 1) - from in
    if len > 0 then
      Array.blit partial.Solution.starts from merged inst.Instance.first.(jdx)
        len
  done;
  Solution.evaluate inst merged

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
  let first = inst.Instance.first in
  let any = ref false in
  let covered =
    Array.mapi
      (fun jdx (j : Instance.pending_job) ->
        let est = j.Instance.est in
        let k = ref first.(jdx) and stop = first.(jdx + 1) in
        while !k < stop && carried.(!k) >= est do
          incr k
        done;
        let c = !k = stop in
        if c then any := true;
        c)
      inst.Instance.jobs
  in
  if not !any then None
  else
    (* a fixed Edf completion order, whatever the seed ordering *)
    match Greedy.complete pass ~carried ~covered with
    | sol, true -> Some sol
    | _, false -> None

let warm_candidate p inc = warm_in p.greedy p.inst inc

(* The incumbent the search pipeline actually starts from.  Cold solves take
   the best greedy seed over every ordering.  Warm solves put the carried
   plan on the critical path instead of on top of it: when the caller
   supplies the lower bound and the warm candidate already meets it, no
   greedy runs at all (the plan-cache-hit fast path — the whole solve
   reduces to one coverage check plus a list-scheduling completion);
   otherwise the candidate is raced against a single pass of the configured
   ordering, and only when it loses does the full multi-ordering cold seed
   run.  Ties go to the warm plan — it minimizes churn against the previous
   schedule.  Returns the incumbent, whether the warm candidate won, and
   the wall seconds of the warm completion and of the list schedules.
   Every schedule shares the one pass. *)
let seed_incumbent ~options ?warm ?lb p =
  let t0 = Obs.Clock.now () in
  let candidate =
    match warm with None -> None | Some inc -> warm_candidate p inc
  in
  let t1 = match warm with None -> t0 | Some _ -> Obs.Clock.now () in
  let cold () = (greedy_seed ~ordering:options.ordering p, false) in
  let seed, warm_seeded =
    match candidate with
    | None -> cold ()
    | Some warm
      when (match lb with
           | Some b -> warm.Solution.late_jobs <= b
           | None -> false) ->
        (warm, true)
    | Some warm ->
        let preferred = Greedy.schedule ~order:options.ordering p.greedy in
        if not (Solution.better preferred warm) then (warm, true)
        else (greedy_seed ~preferred ~ordering:options.ordering p, false)
  in
  let t2 = Obs.Clock.now () in
  (seed, warm_seeded, t1 -. t0, t2 -. t1)

let starting_incumbent ~options ?warm ?lb p =
  let seed, warm_seeded, _, _ = seed_incumbent ~options ?warm ?lb p in
  (seed, warm_seeded)

type exact_search =
  registry:Obs.Metrics.t option ->
  bound_to_beat:int ->
  Search.limits ->
  Search.outcome * float

(* The default exact backend: a fresh Table-1 model of [inst].  LNS runs
   every fragment through it too. *)
let model_search inst ~registry ~bound_to_beat limits =
  let model = Model.build inst ~horizon:(Model.default_horizon inst) in
  model.Model.bound := bound_to_beat;
  if registry <> None then Store.set_instrumented model.Model.store true;
  let outcome = Search.run model limits in
  Option.iter (fun r -> Store.harvest r model.Model.store) registry;
  (outcome, 0.)

(* What the pipeline knows once it has seeded and bounded the instance. *)
type start = {
  t0 : float;
  registry : Obs.Metrics.t option;
  lb : int;  (* max of the classic and the carried bound *)
  lb_classic : int;
  seed : Solution.t;
  warm_seeded : bool;
  bound_s : float;  (* preparing the pass, the classic bound included *)
  warm_s : float;
  list_s : float;
  on_settle : Obs.Metrics.t option -> Solution.t -> stats -> unit;
}

let start ~options ?(t0 = Obs.Clock.now ()) ?pass ?(carried_bound = min_int)
    ?warm ?(on_settle = fun _ _ _ -> ()) inst =
  let registry =
    if options.instrument then Some (Obs.Metrics.create ()) else None
  in
  let p = match pass with Some p -> p | None -> prepare inst in
  let lb = max p.lb_classic carried_bound in
  let seed, warm_seeded, warm_s, list_s =
    seed_incumbent ~options ?warm ~lb p
  in
  {
    t0;
    registry;
    lb;
    lb_classic = p.lb_classic;
    seed;
    warm_seeded;
    bound_s = p.prepare_s;
    warm_s;
    list_s;
    on_settle;
  }

(* [f ()] and the wall seconds it took *)
let timed f =
  let t = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t)

(* Every return of the pipeline goes through here: the caller's hook sees
   the result first, then the clock and the metrics snapshot are read, so
   both cover the hook's work as well. *)
let settle_with st ?(nodes = 0) ?(failures = 0) ?(lns_moves = 0)
    ?(sync_s = 0.) ?(search_s = 0.) ~proved ~stop incumbent =
  let stats elapsed metrics =
    {
      seed_late = st.seed.Solution.late_jobs;
      lower_bound = st.lb;
      proved_optimal = proved;
      warm_seeded = st.warm_seeded;
      stop_reason = stop;
      nodes;
      failures;
      lns_moves;
      elapsed;
      seed_s = st.bound_s +. st.warm_s +. st.list_s;
      bound_s = st.bound_s;
      warm_s = st.warm_s;
      list_s = st.list_s;
      sync_s;
      search_s;
      metrics;
    }
  in
  st.on_settle st.registry incumbent (stats 0. None);
  ( incumbent,
    stats
      (Obs.Clock.now () -. st.t0)
      (Option.map Obs.Metrics.snapshot st.registry) )

(* An incumbent that meets the bound is optimal.  The proof belongs to the
   carried bound when the classic bound alone would not have settled it. *)
let bound_stop st (sol : Solution.t) =
  if sol.Solution.late_jobs > st.lb_classic then
    Obs.Solve_stats.Hit_carried_bound
  else Obs.Solve_stats.Proved

let fast_path st =
  if st.seed.Solution.late_jobs > st.lb then None
  else
    let stop =
      match bound_stop st st.seed with
      | Obs.Solve_stats.Proved when st.warm_seeded -> Obs.Solve_stats.Cache_hit
      | stop -> stop
    in
    Some (settle_with st ~proved:true ~stop st.seed)

let exact_regime ~options ~exact st =
  let limits =
    {
      Search.fail_limit = options.fail_limit;
      node_limit = 0;
      wall_deadline = Some (st.t0 +. options.time_limit);
      (* an improving solution that reaches [lb] is already optimal — stop
         at that node instead of exhausting the rest of the tree to
         re-prove it *)
      target = Some st.lb;
    }
  in
  let (outcome, sync_s), total_s =
    timed (fun () ->
        exact ~registry:st.registry ~bound_to_beat:st.seed.Solution.late_jobs
          limits)
  in
  let search_s = total_s -. sync_s in
  let incumbent = Option.value outcome.Search.best ~default:st.seed in
  let proved =
    outcome.Search.proved_optimal || incumbent.Solution.late_jobs <= st.lb
  in
  let stop =
    if outcome.Search.proved_optimal then Obs.Solve_stats.Proved
    else if proved then bound_stop st incumbent
    else Search.stop_reason_of_cause outcome.Search.stopped
  in
  settle_with st ~nodes:outcome.Search.nodes ~failures:outcome.Search.failures
    ~sync_s ~search_s ~proved ~stop incumbent

(* LNS over job neighbourhoods *)
let lns_regime ~options ?warm st (inst : Instance.t) =
  let t_search = Obs.Clock.now () in
  let deadline = st.t0 +. options.time_limit in
  let rng = Simrand.Rng.create options.seed in
  let n_jobs = Array.length inst.Instance.jobs in
  let incumbent = ref st.seed in
  let stall = ref 0 and nodes = ref 0 and failures = ref 0 in
  let lns_moves = ref 0 in
  (* warm start: the jobs the caller flagged as changed since the last
     solve (new arrivals, repaired jobs) are relaxed on the first move, so
     the search immediately re-optimizes around the delta instead of a
     random neighbourhood *)
  let changed =
    match warm with Some inc -> inc.changed_jobs | None -> []
  in
  let continue () =
    !incumbent.Solution.late_jobs > st.lb
    && !stall < options.lns_max_stall
    && Obs.Clock.now () < deadline
  in
  while continue () do
    incr lns_moves;
    let relaxed = Array.make n_jobs false in
    (* the changed jobs on the first move, all currently-late jobs ... *)
    Array.iteri
      (fun jdx (j : Instance.pending_job) ->
        let completion =
          Solution.job_completion inst jdx !incumbent.Solution.starts
        in
        if
          completion > j.Instance.job.T.deadline
          || (!lns_moves = 1 && List.mem j.Instance.job.T.id changed)
        then relaxed.(jdx) <- true)
      inst.Instance.jobs;
    (* ... plus a few random neighbours *)
    for _ = 1 to options.lns_neighbors do
      relaxed.(Simrand.Rng.int rng n_jobs) <- true
    done;
    let sub = freeze_except inst !incumbent relaxed in
    let limits =
      {
        Search.fail_limit = options.fail_limit;
        node_limit = 0;
        wall_deadline = Some deadline;
        (* a fragment keeps every job, so its late count is the merged
           plan's: one that reaches [lb] can record nothing better, and
           searching on would only spend the budget up to the fail limit
           or the wall clock, whichever comes first *)
        target = Some st.lb;
      }
    in
    (* a fragment is only worth exploring if it can beat the incumbent *)
    let run () =
      fst
        (model_search sub ~registry:st.registry
           ~bound_to_beat:!incumbent.Solution.late_jobs limits)
    in
    let outcome =
      if Obs.Trace.enabled () then
        Obs.Trace.with_span ~cat:"search" "lns-move"
          ~args:
            [
              ( "relaxed_jobs",
                Obs.Trace.Int
                  (Array.fold_left (fun n r -> n + Bool.to_int r) 0 relaxed) );
            ]
          run
      else run ()
    in
    nodes := !nodes + outcome.Search.nodes;
    failures := !failures + outcome.Search.failures;
    match outcome.Search.best with
    | Some partial ->
        let merged = merge_starts inst sub !incumbent partial in
        if Solution.better merged !incumbent then begin
          incumbent := merged;
          stall := 0
        end
        else incr stall
    | None -> incr stall
  done;
  let search_s = Obs.Clock.now () -. t_search in
  let proved = !incumbent.Solution.late_jobs <= st.lb in
  (* mirror [continue]'s evaluation order for the attributed cause *)
  let stop =
    if proved then bound_stop st !incumbent
    else if !stall >= options.lns_max_stall then Obs.Solve_stats.Lns_stall
    else Obs.Solve_stats.Wall_limit
  in
  settle_with st ~nodes:!nodes ~failures:!failures ~lns_moves:!lns_moves
    ~search_s ~proved ~stop !incumbent

let solve ?(options = default_options) ?t0 ?pass ?carried_bound ?warm ?exact
    ?on_settle (inst : Instance.t) =
  let st = start ~options ?t0 ?pass ?carried_bound ?warm ?on_settle inst in
  match fast_path st with
  | Some settled -> settled
  | None when Instance.pending_task_count inst <= options.exact_task_limit ->
      let exact =
        match exact with Some e -> e | None -> model_search inst
      in
      exact_regime ~options ~exact st
  | None -> lns_regime ~options ?warm st inst
