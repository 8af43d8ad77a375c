(* End-to-end MRCP-RM benchmark.

   One invocation runs one named workload, generated from --seed, through
   Opensim.Simulator.run with an Opensim.Driver.of_mrcp manager: the whole
   simulator -> manager -> solver -> matchmaker pipeline.  Every layer is
   timed from outside the library: the Driver.t closures are wrapped with
   timers, Mrcp.Manager.last_solver_stats is read after every pass that
   solved, and Gc counters are read around each run.

   A workload is a list of episodes, each a fresh manager fed one job
   stream.  Every invocation first runs all episodes once untimed with
   Simulator.run ~validate:true, which also warms the code and the heap up.
   --trace 0 then replays the episodes untraced for --seconds, at least
   twice, and reports the end-to-end metrics.  --trace 1 replays them in
   untraced and traced pairs (solver instrumentation and the decision
   journal on) and reports the per-layer split of the first traced replay;
   the difference between the two kinds is the tracing overhead.

   Any failed correctness check exits 1 without a result: every submitted
   job has exactly one outcome, the validated run raises on a simulator
   invariant, every traced journal passes Report.Audit's run-end
   cross-checks, and the deterministic work counters repeat exactly across
   the runs of the seed outside passes stopped by the solver's wall-clock
   limit. *)

module T = Mapreduce.Types
module M = Mrcp.Manager
module Sim = Opensim.Simulator
module Stats = Obs.Solve_stats

let clock = Obs.Clock.now

exception Check_failed of string

let check_failed fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type episode = {
  cluster : T.resource array;
  jobs : T.job list;
  chaos : Opensim.Chaos.plan;
}

type workload = {
  name : string;
  params : string;  (** printed with the report *)
  config : M.config;
  episodes : seed:int -> episode list;
}

(* Episode seeds are drawn from the workload seed. *)
let episode_seeds ~seed n =
  let rng = Simrand.Rng.create seed in
  List.init n (fun _ -> Simrand.Rng.int rng 1_000_000_000)

(* The Table-4 Facebook mix on the Fig. 2 64x(1,1) cluster with the
   default manager.  Jobs are large (~230 tasks), most passes settle
   without search and LNS sets the tail, so the time sits in the manager,
   matchmaker, greedy seed/bound and simulator; B&B is bypassed.

   Mapreduce.Facebook.generate draws each job's class independently, and
   the two largest classes (2% each, 2760 and 4800 tasks) then make the
   work of a few hundred jobs swing by half between seeds.  Each episode
   here is one block of 50 jobs that holds the Table-4 counts exactly
   (19/8/7/4/3/3/2/2/1/1), shuffled; arrivals, task times and deadlines are
   drawn as Mapreduce.Facebook.generate draws them. *)
let fb_block = 50
let fb_episodes = 16

let fb_generate ~seed =
  let p = Mapreduce.Facebook.default in
  let cluster = Mapreduce.Facebook.cluster () in
  let root = Simrand.Rng.create seed in
  let arrivals_rng = Simrand.Rng.split root in
  let class_rng = Simrand.Rng.split root in
  let exec_rng = Simrand.Rng.split root in
  let sla_rng = Simrand.Rng.split root in
  let classes =
    Array.concat
      (List.map
         (fun (c : Mapreduce.Facebook.job_class) ->
           Array.make (c.count * fb_block / 1000) c)
         (Array.to_list Mapreduce.Facebook.job_classes))
  in
  assert (Array.length classes = fb_block);
  for i = fb_block - 1 downto 1 do
    let j = Simrand.Rng.int class_rng (i + 1) in
    let c = classes.(i) in
    classes.(i) <- classes.(j);
    classes.(j) <- c
  done;
  let next_task = ref 0 in
  let task job_id kind ~mu ~sigma2 =
    let exec_time =
      max 1 (int_of_float (ceil (Simrand.Dist.lognormal exec_rng ~mu ~sigma2)))
    in
    let task_id = !next_task in
    incr next_task;
    { T.task_id; job_id; kind; exec_time; capacity_req = 1 }
  in
  let clock = ref 0. in
  let job id (c : Mapreduce.Facebook.job_class) =
    clock :=
      !clock +. (Simrand.Dist.exponential arrivals_rng ~rate:p.lambda *. 1000.);
    let arrival = int_of_float !clock in
    let job =
      {
        T.id;
        arrival;
        earliest_start = arrival;
        deadline = max_int;
        map_tasks =
          Array.init c.maps (fun _ ->
              task id T.Map_task ~mu:p.map_mu ~sigma2:p.map_sigma2);
        reduce_tasks =
          Array.init c.reduces (fun _ ->
              task id T.Reduce_task ~mu:p.reduce_mu ~sigma2:p.reduce_sigma2);
      }
    in
    let te = T.minimum_execution_time job cluster in
    let multiplier = Simrand.Dist.uniform sla_rng ~lo:1. ~hi:p.d_m in
    { job with deadline = arrival + int_of_float (float_of_int te *. multiplier) }
  in
  {
    cluster;
    jobs = List.mapi job (Array.to_list classes);
    chaos = Opensim.Chaos.no_faults;
  }

let fb_stream =
  {
    name = "fb-stream";
    params =
      Printf.sprintf
        "%d episodes x %d jobs, each the exact Table-4 Facebook mix, lambda \
         %g, 64x(1,1) cluster, default manager"
        fb_episodes fb_block Mapreduce.Facebook.default.lambda;
    config = M.default_config;
    episodes =
      (fun ~seed ->
        List.map (fun seed -> fb_generate ~seed) (episode_seeds ~seed fb_episodes));
  }

(* The contended case of bench/main.exe --session-compare: small jobs on a
   4x(2,2) cluster with tight deadlines, where the solver's session B&B,
   certificate proofs and wall-capped passes take nearly all the time.  It
   runs as 40-job episodes, each with a fresh manager, because one long
   stream at this load saturates and its turnaround keeps climbing;
   episodes keep the backlog stationary. *)
let contended_episodes = 120

let contended_params =
  {
    Mapreduce.Synthetic.default with
    n_jobs = 40;
    lambda = 0.05;
    map_tasks_max = 12;
    reduce_tasks_max = 4;
    e_max = 25;
    s_max = 100;
    d_m = 1.5;
  }

let contended_config =
  {
    M.default_config with
    solver =
      { Cp.Solver.default_options with exact_task_limit = 400; fail_limit = 2_000 };
  }

(* Crashes with rejoins, stragglers and attempt failures.  Every fault drops
   the manager's session and its certificate, so the session layer runs its
   rebuild path instead of its incremental diff. *)
let chaos_config =
  {
    Opensim.Chaos.default with
    crash_rate = 2e-5;
    straggler_p = 0.01;
    task_failure_p = 0.02;
  }

let contended ~name ~chaos =
  {
    name;
    params =
      Printf.sprintf
        "%d episodes x 40 synthetic jobs (<=12 maps, <=4 reduces, e_max 25, \
         s_max 100, d_M 1.5, lambda 0.05) on 4x(2,2), exact_task_limit 400, \
         fail_limit 2000%s"
        contended_episodes
        (match chaos with
        | None -> ""
        | Some c ->
            Printf.sprintf
              ", chaos crash_rate %g/s, straggler_p %g, task_failure_p %g"
              c.Opensim.Chaos.crash_rate c.straggler_p c.task_failure_p);
    config = contended_config;
    episodes =
      (fun ~seed ->
        List.map
          (fun seed ->
            let cluster =
              T.uniform_cluster ~m:4 ~map_capacity:2 ~reduce_capacity:2
            in
            let jobs = Mapreduce.Synthetic.generate contended_params ~cluster ~seed in
            let chaos =
              match chaos with
              | None -> Opensim.Chaos.no_faults
              | Some c -> Opensim.Chaos.materialize c ~cluster ~jobs ~seed
            in
            { cluster; jobs; chaos })
          (episode_seeds ~seed contended_episodes));
  }

let workloads =
  [
    fb_stream;
    contended ~name:"contended-episodes" ~chaos:None;
    contended ~name:"contended-chaos" ~chaos:(Some chaos_config);
  ]

(* ------------------------------------------------------------------ *)
(* Running the episodes                                                *)
(* ------------------------------------------------------------------ *)

type mode = Validated | Untraced | Traced

let mode_name = function
  | Validated -> "validated"
  | Untraced -> "untraced"
  | Traced -> "traced"

type pass = {
  index : int;  (** pass number within its episode *)
  wall : float;  (** the react call that ran it, seconds *)
  overhead : float;  (** Manager.overhead_seconds added by it *)
  stats : Cp.Solver.stats;
}

let is_capped p = p.stats.Stats.stop_reason = Stats.Wall_limit

let store_counters =
  [
    "session/appended_jobs";
    "session/retracted";
    "session/rebuilds";
    "session/cert_proofs";
    "store/propagations";
    "store/words_allocated";
  ]

(* Deterministic work of one episode, compared across runs.  Node, failure
   and LNS counts leave out passes stopped by the wall-clock limit: those
   are the only ones whose work depends on machine speed. *)
type signature = {
  s_passes : int;
  s_events : int;
  s_late : int;
  s_turnaround_ms : int;
  s_nodes : int;
  s_failures : int;
  s_lns_moves : int;
  s_stops : int list;  (** per {!Stats.all_stop_reasons} *)
  s_capped : int list;  (** indices of wall-capped passes *)
  s_store : int list option;
      (** traced only: {!store_counters}, which include capped passes *)
}

type episode_run = {
  jobs : int;
  late : int;
  turnaround_ms : int;  (** Σ CT_j − s_j *)
  run_s : float;  (** Simulator.run wall time *)
  overhead_s : float;  (** Manager.overhead_seconds *)
  passes : pass array;
  events : int;
  react_calls : int;
  noop_s : float;  (** react calls that did not solve *)
  callback_s : float;  (** traced: every driver closure but react *)
  cache_hits : int;
  minor_words : float;
  promoted_words : float;
  signature : signature;
}

type run = {
  mode : mode;
  setup_s : float;
  episodes : episode_run option array;  (** [None]: skipped in this replay *)
}

let episodes_of r = List.filter_map Fun.id (Array.to_list r.episodes)

let check_outcomes (ep : episode) (r : Sim.results) =
  let pending = Hashtbl.create 64 in
  List.iter (fun (j : T.job) -> Hashtbl.replace pending j.T.id j) ep.jobs;
  List.iter
    (fun (o : Sim.job_outcome) ->
      let id = o.job.T.id in
      match Hashtbl.find_opt pending id with
      | None -> check_failed "job %d has an outcome twice or was never submitted" id
      | Some j ->
          Hashtbl.remove pending id;
          if o.late <> (o.completion > j.T.deadline) then
            check_failed "job %d: late flag disagrees with its deadline" id;
          if o.turnaround_ms <> o.completion - j.T.earliest_start then
            check_failed "job %d: turnaround is not CT_j - s_j" id)
    r.outcomes;
  if Hashtbl.length pending > 0 then
    check_failed "%d submitted jobs have no outcome" (Hashtbl.length pending)

let audit journal =
  match Report.Audit.of_string (Obs.Journal.to_string journal) with
  | Error e -> check_failed "journal does not parse: %s" e
  | Ok rep ->
      List.iter
        (fun (c : Report.Audit.check) ->
          if not c.ok then
            check_failed "journal cross-check %s: expected %s, got %s" c.name
              c.expected c.actual)
        rep.checks

(* Set-up: workload generation, clusters and Manager.create, everything
   before the first simulated event. *)
let prepare w ~mode ~seed =
  let t0 = clock () in
  let prepared =
    List.map
      (fun (ep : episode) ->
        let journal =
          if mode = Traced then Some (Obs.Journal.create ()) else None
        in
        let config =
          {
            w.config with
            M.journal;
            validate = mode = Validated;
            solver = { w.config.M.solver with instrument = mode = Traced };
          }
        in
        (ep, journal, M.create ~cluster:ep.cluster config))
      (w.episodes ~seed)
  in
  (prepared, clock () -. t0)

let run_episode ~mode ((ep : episode), journal, mgr) =
  let traced = mode = Traced in
  let passes = ref [] and react_calls = ref 0 and noop_s = ref 0.
  and callback_s = ref 0. in
  let timed f =
    let t0 = clock () in
    let r = f () in
    callback_s := !callback_s +. (clock () -. t0);
    r
  in
  let d = Opensim.Driver.of_mrcp mgr in
  let react ~now =
    let solves = M.solve_count mgr and o0 = M.overhead_seconds mgr in
    let t0 = clock () in
    let r = d.react ~now in
    let wall = clock () -. t0 in
    incr react_calls;
    if M.solve_count mgr > solves then
      passes :=
        {
          index = solves;
          wall;
          overhead = M.overhead_seconds mgr -. o0;
          stats = Option.get (M.last_solver_stats mgr);
        }
        :: !passes
    else noop_s := !noop_s +. wall;
    r
  in
  let driver =
    if not traced then { d with react }
    else
      {
        d with
        react;
        submit = (fun ~now job -> timed (fun () -> d.submit ~now job));
        task_completed =
          (fun ~now ~task_id -> timed (fun () -> d.task_completed ~now ~task_id));
        task_started =
          (fun ~now ~task_id ~exec_ms ->
            timed (fun () -> d.task_started ~now ~task_id ~exec_ms));
        task_attempt_failed =
          (fun ~now ~task_id ->
            timed (fun () -> d.task_attempt_failed ~now ~task_id));
        resource_lost =
          (fun ~now ~resource_id ~lost ->
            timed (fun () -> d.resource_lost ~now ~resource_id ~lost));
        resource_rejoined =
          (fun ~now ~resource_id ->
            timed (fun () -> d.resource_rejoined ~now ~resource_id));
        next_wake = (fun ~now -> timed (fun () -> d.next_wake ~now));
      }
  in
  let g0 = Gc.quick_stat () in
  let t0 = clock () in
  let r =
    Sim.run ~validate:(mode = Validated) ?journal ~chaos:ep.chaos ~driver
      ~jobs:ep.jobs ()
  in
  let run_s = clock () -. t0 in
  let g1 = Gc.quick_stat () in
  check_outcomes ep r;
  Option.iter audit journal;
  let passes = Array.of_list (List.rev !passes) in
  let turnaround_ms =
    List.fold_left (fun a (o : Sim.job_outcome) -> a + o.turnaround_ms) 0 r.outcomes
  in
  let free = List.filter (fun p -> not (is_capped p)) (Array.to_list passes) in
  let sum f = List.fold_left (fun a p -> a + f p.stats) 0 free in
  let store =
    match M.metrics mgr with
    | Some snap ->
        Some
          (List.map
             (fun c -> Option.value (Obs.Metrics.find_counter snap c) ~default:0)
             store_counters)
    | None -> None
  in
  {
    jobs = r.jobs_total;
    late = r.n_late;
    turnaround_ms;
    run_s;
    overhead_s = M.overhead_seconds mgr;
    passes;
    events = r.events_executed;
    react_calls = !react_calls;
    noop_s = !noop_s;
    callback_s = !callback_s;
    cache_hits = M.cache_hit_count mgr;
    minor_words = g1.minor_words -. g0.minor_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    signature =
      {
        s_passes = Array.length passes;
        s_events = r.events_executed;
        s_late = r.n_late;
        s_turnaround_ms = turnaround_ms;
        s_nodes = sum (fun s -> s.Stats.nodes);
        s_failures = sum (fun s -> s.Stats.failures);
        s_lns_moves = sum (fun s -> s.Stats.lns_moves);
        s_stops =
          List.map
            (fun reason ->
              Array.fold_left
                (fun a p -> if p.stats.Stats.stop_reason = reason then a + 1 else a)
                0 passes)
            Stats.all_stop_reasons;
        s_capped =
          List.filter_map
            (fun p -> if is_capped p then Some p.index else None)
            (Array.to_list passes);
        s_store = store;
      };
  }

(* Each episode's manager is dropped once the episode has run, so the heap
   holds one live pipeline at a time, as in a single Simulator.run. *)
let run ?(skip = fun _ -> false) w ~mode ~seed =
  let prepared, setup_s = prepare w ~mode ~seed in
  let prepared = Array.of_list (List.map Option.some prepared) in
  let episodes =
    Array.mapi
      (fun e p ->
        prepared.(e) <- None;
        if skip e then None else Some (run_episode ~mode (Option.get p)))
      prepared
  in
  { mode; setup_s; episodes }

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum_by f a = Array.fold_left (fun acc x -> acc +. f x) 0. a
let isum_by f a = Array.fold_left (fun acc x -> acc + f x) 0 a

(* nearest rank, as Report.Audit.latency_quantile: the sample at ceil(q n),
   with q in per-mille to keep the rank exact *)
let rank ~permille n = ((permille * n) + 999) / 1000

let percentile sorted ~permille =
  sorted.(max 0 (rank ~permille (Array.length sorted) - 1))

(* the highest of these percentiles with at least ten samples beyond it *)
let tail_permille n =
  List.find_opt
    (fun p -> n - rank ~permille:p n >= 10)
    [ 999; 995; 990; 950; 900; 750; 500 ]

let permille_name p =
  if p mod 10 = 0 then Printf.sprintf "p%d" (p / 10)
  else Printf.sprintf "p%d.%d" (p / 10) (p mod 10)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* What a replay keeps for the timing metrics; the rest of its
   episode_run is dropped once checked, so the heap does not grow with the
   number of replays. *)
type sample = {
  x_jobs : int;
  x_run_s : float;
  x_overhead_s : float;
  x_walls : float array;  (** per pass *)
  x_overheads : float array;  (** per pass *)
  x_capped : bool array;  (** per pass *)
}

let sample (ep : episode_run) =
  {
    x_jobs = ep.jobs;
    x_run_s = ep.run_s;
    x_overhead_s = ep.overhead_s;
    x_walls = Array.map (fun p -> p.wall) ep.passes;
    x_overheads = Array.map (fun p -> p.overhead) ep.passes;
    x_capped = Array.map is_capped ep.passes;
  }

let fsum = Array.fold_left ( +. ) 0.

type timing = {
  t_jobs : int;
  t_run_s : float;
  t_overhead_s : float;
  t_walls : float array;  (** passes that were not wall-capped *)
}

(* On a shared machine the CPU speed can drift by a third for tens of
   seconds.  So each episode's times are built from the fastest of its
   replays part by part: every pass's wall time and manager overhead is its
   fastest, and the time outside the passes is the fastest too.  The
   replays run the same passes, bar a divergence after a wall-capped pass;
   there the first replay is kept. *)
let fastest (replays : sample option array list) =
  List.filter_map
    (fun e ->
      match List.filter_map (fun r -> r.(e)) replays with
      | [] -> None
      | x :: _ as xs ->
          let n = Array.length x.x_walls in
          let xs = List.filter (fun y -> Array.length y.x_walls = n) xs in
          let least f = List.fold_left (fun a y -> Float.min a (f y)) infinity xs in
          let walls = Array.init n (fun i -> least (fun y -> y.x_walls.(i))) in
          let overheads =
            Array.init n (fun i -> least (fun y -> y.x_overheads.(i)))
          in
          Some
            {
              t_jobs = x.x_jobs;
              t_run_s = fsum walls +. least (fun y -> y.x_run_s -. fsum y.x_walls);
              t_overhead_s =
                fsum overheads
                +. least (fun y -> y.x_overhead_s -. fsum y.x_overheads);
              t_walls =
                Array.of_list
                  (List.filteri
                     (fun i _ -> not x.x_capped.(i))
                     (Array.to_list walls));
            })
    (List.init (Array.length (List.hd replays)) Fun.id)

(* ------------------------------------------------------------------ *)
(* Determinism and the wall-cap ledger                                 *)
(* ------------------------------------------------------------------ *)

(* Compares run k's episodes against a base run's.  A mismatch in
   an episode where neither run hit the wall-clock limit is a determinism
   failure; elsewhere it is flagged, since a capped pass may keep another
   incumbent and steer the rest of the episode. *)
let check_determinism ~base k r =
  let compare e (a : episode_run) (b : episode_run) =
    let a = a.signature and b = b.signature in
    let a', b' =
      match (a.s_store, b.s_store) with
      | Some _, Some _ -> (a, b)
      | _ -> ({ a with s_store = None }, { b with s_store = None })
    in
    if a' = b' then None
    else
      let what =
        Printf.sprintf "episode %d: run %d (%s) differs from the first %s run"
          e k (mode_name r.mode) (mode_name base.mode)
      in
      if a.s_capped = [] && b.s_capped = [] then
        check_failed "deterministic counters differ, %s" what
      else if a.s_capped <> b.s_capped then
        Some (what ^ ": its set of wall-capped passes differs")
      else Some (what ^ " after a wall-capped pass")
  in
  List.filter_map Fun.id
    (Array.to_list
       (Array.mapi
          (fun e ep ->
            match (base.episodes.(e), ep) with
            | Some a, Some b -> compare e a b
            | _ -> None)
          r.episodes))

let ledger w ~seed k r =
  List.concat_map
    (fun (e, (ep : episode_run)) ->
      List.filter_map
        (fun p ->
          if not (is_capped p) then None
          else
            Some
              (Printf.sprintf
                 {|{"workload":"%s","seed":%d,"run":%d,"mode":"%s","episode":%d,"pass":%d,"nodes":%d,"failures":%d,"wall_s":%.4f}|}
                 w.name seed k (mode_name r.mode) e p.index p.stats.Stats.nodes
                 p.stats.Stats.failures p.wall))
        (Array.to_list ep.passes))
    (List.filter_map
       (fun (e, ep) -> Option.map (fun ep -> (e, ep)) ep)
       (List.mapi (fun e ep -> (e, ep)) (Array.to_list r.episodes)))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; value : float; unit_ : string }

let metric m_name unit_ value = { m_name; value; unit_ }
let count m_name v = metric m_name "count" (float_of_int v)

(* Timing metrics are medians over the episodes that were replayed: a pass
   stopped by the 0.5 s wall-clock limit costs as much as twenty ordinary
   contended episodes, a hard proof as much as a hundred ordinary passes,
   and how many of these a seed draws swings from seed to seed.  The tail
   is each episode's p95 pass, its second or third slowest: a pooled tail
   swings by half between seeds on contended-chaos.  Episodes with a
   wall-capped pass are not replayed; the ledger lists their capped passes.
   Pooled percentiles and totals are printed beside the metrics. *)
let end_to_end ~setups ~peak_heap_words ~outcomes replays =
  let t = fastest replays in
  let over_episodes f = median (List.map f t) in
  let over_passes f =
    median
      (List.filter_map
         (fun e -> if e.t_walls = [||] then None else Some (f e.t_walls))
         t)
  in
  let outcomes = Array.of_list (episodes_of outcomes) in
  let walls = sorted (Array.concat (List.map (fun e -> e.t_walls) t)) in
  let n = Array.length walls in
  let tail = Option.value (tail_permille n) ~default:500 in
  let jobs = isum_by (fun e -> e.jobs) outcomes in
  let late = isum_by (fun e -> e.late) outcomes in
  let ms =
    [
      metric "jobs_per_s" "jobs/s"
        (over_episodes (fun e -> float_of_int e.t_jobs /. e.t_run_s));
      metric "decide_p50_ms" "ms"
        (over_passes (fun w -> 1000. *. percentile (sorted w) ~permille:500));
      metric "decide_tail_ms" "ms"
        (over_passes (fun w -> 1000. *. percentile (sorted w) ~permille:950));
      metric "o_per_job_ms" "ms"
        (over_episodes (fun e -> 1000. *. e.t_overhead_s /. float_of_int e.t_jobs));
      metric "late_frac" "fraction" (float_of_int late /. float_of_int jobs);
      metric "turnaround_s" "s"
        (float_of_int (isum_by (fun e -> e.turnaround_ms) outcomes)
        /. 1000. /. float_of_int jobs);
      metric "setup_s" "s" (median setups);
      metric "peak_heap_mb" "MB"
        (peak_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6);
    ]
  in
  let run_s = List.fold_left (fun a e -> a +. e.t_run_s) 0. t in
  let timed_jobs = List.fold_left (fun a e -> a + e.t_jobs) 0 t in
  let notes =
    [
      Printf.sprintf
        "each time is the fastest of %d untraced replays, pass by pass; \
         timing metrics are medians over the %d episodes that no run \
         wall-capped; late_frac and turnaround_s cover all %d jobs"
        (List.length replays) (List.length t) jobs;
      Printf.sprintf
        "decide_p50_ms and decide_tail_ms are the median episode's p50 and \
         p95 pass; pooled over all %d scheduling passes: p50 %.4f ms, %s \
         %.4f ms (the highest percentile with at least ten passes beyond \
         it)"
        n
        (1000. *. percentile walls ~permille:500)
        (permille_name tail)
        (1000. *. percentile walls ~permille:tail);
      Printf.sprintf
        "totals over these episodes: %d jobs in %.3f s of Simulator.run \
         (%.1f jobs/s), O %.4f ms/job"
        timed_jobs run_s
        (float_of_int timed_jobs /. run_s)
        (1000. *. List.fold_left (fun a e -> a +. e.t_overhead_s) 0. t
         /. float_of_int timed_jobs);
    ]
  in
  (ms, notes)

(* The stop reasons whose pass count and time the result reports.  The
   others never fire on the contended workloads, where their time would
   read 0 s on every run; the report prints every reason. *)
let timed_reasons =
  [ Stats.Proved; Hit_carried_bound; Cache_hit; Fail_limit; Wall_limit ]

(* The traced replays' wall time against the untraced ones', each
   episode's fastest of each kind, over the episodes without a wall-capped
   pass: a capped pass lasts 0.5 s traced or not. *)
let trace_overhead_pct ~untraced ~traced =
  let fastest replays e =
    List.fold_left
      (fun a r ->
        match r.(e) with
        | Some x when not (Array.mem true x.x_capped) -> Float.min a x.x_run_s
        | _ -> a)
      infinity replays
  in
  let u = ref 0. and t = ref 0. in
  Array.iteri
    (fun e _ ->
      let fu = fastest untraced e and ft = fastest traced e in
      if Float.is_finite fu && Float.is_finite ft then begin
        u := !u +. fu;
        t := !t +. ft
      end)
    (List.hd untraced);
  100. *. ((!t /. !u) -. 1.)

let per_layer ~first_traced ~untraced ~traced =
  let eps = Array.of_list (episodes_of first_traced) in
  let passes = Array.concat (Array.to_list (Array.map (fun e -> e.passes) eps)) in
  let run_s = sum_by (fun e -> e.run_s) eps in
  let pass_s = sum_by (fun p -> p.wall) passes in
  let solve_s = sum_by (fun p -> p.stats.Stats.elapsed) passes in
  let noop_s = sum_by (fun e -> e.noop_s) eps in
  let callback_s = sum_by (fun e -> e.callback_s) eps in
  let opensim_s = run_s -. pass_s -. noop_s -. callback_s in
  let manager_s = pass_s -. solve_s in
  let stat f = isum_by (fun p -> f p.stats) passes in
  let nodes = stat (fun s -> s.Stats.nodes) in
  let events = isum_by (fun e -> e.events) eps in
  let time_of r =
    sum_by (fun p -> if p.stats.Stats.stop_reason = r then p.wall else 0.) passes
  in
  let stops r =
    Array.fold_left
      (fun a p -> if p.stats.Stats.stop_reason = r then a + 1 else a)
      0 passes
  in
  let reason_name = Stats.stop_reason_to_string in
  let store =
    List.mapi
      (fun i name ->
        count
          (String.map (fun c -> if c = '/' then '.' else c) name)
          (isum_by
             (fun e ->
               match e.signature.s_store with Some v -> List.nth v i | None -> 0)
             eps))
      store_counters
  in
  let ms =
    [
      metric "opensim.self_s" "s" opensim_s;
      count "opensim.events" events;
      metric "opensim.events_per_s" "1/s" (float_of_int events /. opensim_s);
      count "manager.react_calls" (isum_by (fun e -> e.react_calls) eps);
      count "manager.passes" (Array.length passes);
      count "manager.cache_hits" (isum_by (fun e -> e.cache_hits) eps);
      metric "manager.noop_s" "s" noop_s;
      metric "manager.self_s" "s" manager_s;
      metric "manager.callback_s" "s" callback_s;
      metric "solver.solve_s" "s" solve_s;
      count "solver.nodes" nodes;
      count "solver.failures" (stat (fun s -> s.Stats.failures));
      metric "solver.nodes_per_s" "1/s" (float_of_int nodes /. solve_s);
    ]
    @ List.map (fun r -> count ("solver.stop." ^ reason_name r) (stops r)) timed_reasons
    @ List.map
        (fun r -> metric ("solver.time." ^ reason_name r ^ "_s") "s" (time_of r))
        timed_reasons
    @ store
    @ [
        metric "alloc.minor_mw" "Mwords"
          (sum_by (fun e -> e.minor_words) eps /. 1e6);
        metric "alloc.promoted_mw" "Mwords"
          (sum_by (fun e -> e.promoted_words) eps /. 1e6);
        metric "obs.trace_overhead_pct" "%" (trace_overhead_pct ~untraced ~traced);
      ]
  in
  let named = opensim_s +. manager_s +. noop_s +. solve_s in
  let notes =
    [
      Printf.sprintf "solver.lns_moves %d; " (stat (fun s -> s.Stats.lns_moves))
      ^ "passes and their react wall per stop reason: "
      ^ String.concat ", "
          (List.map
             (fun r ->
               Printf.sprintf "%s %d in %.4f s" (reason_name r) (stops r)
                 (time_of r))
             Stats.all_stop_reasons);
      Printf.sprintf
        "traced replay wall %.4f s; opensim.self_s + \
         manager.self_s + manager.noop_s + solver.solve_s = %.4f s; \
         unattributed remainder %.4f s (%.2f%%): the driver callbacks outside \
         react (submit, next_wake, task and fault notifications)"
        run_s named (run_s -. named)
        (100. *. (run_s -. named) /. run_s);
      "manager.self_s is pass time minus solver elapsed: classification, \
       instance build, matchmaking and plan install.  From outside the \
       library the matchmaker cannot be separated from the manager's \
       bookkeeping.";
    ]
  in
  (ms, notes)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json ~attempted metrics =
  Printf.sprintf {|{"correct": true, "attempted": %d, "failed": 0, "metrics": {%s}}|}
    attempted
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.m_name
              (json_float m.value) m.unit_)
          metrics))

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Set-up is timed in every run; more set-ups on their own give its median
   enough samples to hold within a few percent: one takes 10-20 ms. *)
let min_setups = 41

let has_capped_pass r e =
  match r.episodes.(e) with
  | Some ep -> ep.signature.s_capped <> []
  | None -> false

let main workload seed seconds trace =
  match List.find_opt (fun w -> w.name = workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      2
  | Some w -> (
      try
        let validated = run w ~mode:Validated ~seed in
        (* An episode with a wall-capped pass spends 0.5 s per capped pass
           on any machine.  Once one run has capped it, the timed replays
           skip it, which leaves the time to replay the others more often. *)
        let capped = Array.make (Array.length validated.episodes) false in
        let runs = ref 0 and attempted = ref 0 and flags = ref [] in
        let ledger_lines = ref [] and setups = ref [] in
        let check ?(base = validated) r =
          let k = !runs in
          incr runs;
          setups := r.setup_s :: !setups;
          attempted :=
            List.fold_left (fun a e -> a + e.jobs) !attempted (episodes_of r);
          flags := !flags @ check_determinism ~base k r;
          ledger_lines := !ledger_lines @ ledger w ~seed k r;
          Array.iteri
            (fun e _ -> if has_capped_pass r e then capped.(e) <- true)
            capped;
          Array.map (Option.map sample) r.episodes
        in
        ignore (check validated);
        let skip e = capped.(e) in
        let t0 = clock () in
        (* The per-layer split needs every episode, the capped ones too. *)
        let first_traced =
          if trace then Some (run w ~mode:Traced ~seed) else None
        in
        let traced = ref (List.map check (Option.to_list first_traced)) in
        let untraced = ref [] in
        while
          clock () -. t0 < float_of_int seconds || List.length !untraced < 2
        do
          untraced := check (run ~skip w ~mode:Untraced ~seed) :: !untraced;
          Option.iter
            (fun base ->
              traced := check ~base (run ~skip w ~mode:Traced ~seed) :: !traced)
            first_traced
        done;
        let peak_heap_words = float_of_int (Gc.quick_stat ()).top_heap_words in
        let untraced = List.rev !untraced and traced = List.rev !traced in
        let setups =
          !setups
          @ List.init (max 0 (min_setups - !runs)) (fun _ ->
                snd (prepare w ~mode:Untraced ~seed))
        in
        let title, (metrics, notes) =
          if trace then
            ( "per-layer metrics of the traced replay",
              per_layer ~first_traced:(Option.get first_traced) ~untraced ~traced )
          else
            ( "end-to-end metrics",
              end_to_end ~setups ~peak_heap_words ~outcomes:validated untraced )
        in
        Printf.printf "perfbench e2e: workload %s, seed %d\n  %s\n%s:\n" w.name
          seed w.params title;
        List.iter
          (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.m_name m.value m.unit_)
          metrics;
        List.iter (Printf.printf "  %s\n") notes;
        List.iter (Printf.printf "wall-capped pass: %s\n") !ledger_lines;
        List.iter (Printf.printf "flag: %s\n") !flags;
        Printf.printf
          "checks passed: %d runs, every job has one outcome, the validated \
           run's invariants hold, deterministic counters repeat%s\n"
          !runs
          (if trace then ", the traced journals pass the audit cross-checks"
           else "");
        print_endline (result_json ~attempted:!attempted metrics);
        0
      with
      | Check_failed msg ->
          Printf.eprintf "perfbench e2e: correctness check failed: %s\n" msg;
          1
      | Failure msg ->
          Printf.eprintf "perfbench e2e: run failed: %s\n" msg;
          1)

open Cmdliner

let cmd =
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"fb-stream, contended-episodes or contended-chaos.")
  in
  let seed =
    Arg.(required & opt (some int) None & info [ "seed" ] ~doc:"Workload seed.")
  in
  let seconds =
    Arg.(
      value & opt int 20
      & info [ "seconds" ]
          ~doc:"Replay the workload for at least this many seconds.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ]
          ~doc:"1: report the per-layer split of a traced replay.")
  in
  Cmd.v
    (Cmd.info "e2e" ~doc:"End-to-end MRCP-RM benchmark")
    Term.(const main $ workload $ seed $ seconds $ trace)

let () = exit (Cmd.eval' cmd)
