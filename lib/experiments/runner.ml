module T = Mapreduce.Types
module Sim = Opensim.Simulator

type config = {
  n_jobs : int;
  reps : int;
  base_seed : int;
  manager : Opensim.Driver.kind;
  ordering : Sched.Greedy.order;
  solver_time_limit : float;
  deferral_window : int option;
  validate : bool;
  instrument : bool;
  journal : Obs.Journal.t option;
      (* one journal shared across reps: events of rep i+1 append after rep
         i's (seq keeps growing); use reps = 1 for per-run audit files *)
  metrics_every : int option; (* virtual ms between journal snapshots *)
  chaos : Opensim.Chaos.config option;
      (* fault injection: a plan is materialized per replication from the
         rep's seed, so reps see different (but reproducible) fault traces *)
}

let default_config =
  {
    n_jobs = 200;
    reps = 3;
    base_seed = 42;
    manager = Opensim.Driver.Mrcp_rm;
    ordering = Sched.Greedy.Edf;
    solver_time_limit = 0.2;
    deferral_window = Some 300_000;
    validate = false;
    instrument = false;
    journal = None;
    metrics_every = None;
    chaos = None;
  }

type point = {
  label : string;
  config : config;
  o_s : Simstats.Confidence.interval option;
  t_s : Simstats.Confidence.interval option;
  p_late : float;
  n_late_mean : float;
  o_mean : float;
  t_mean : float;
  solves_mean : float;
  elapsed_s : float;
  metrics : Obs.Metrics.snapshot option;
}

let make_driver config cluster ~seed =
  Opensim.Driver.make config.manager ~cluster
    {
      Mrcp.Manager.solver =
        {
          Cp.Solver.default_options with
          Cp.Solver.ordering = config.ordering;
          time_limit = config.solver_time_limit;
          seed;
          instrument = config.instrument;
        };
      deferral_window = config.deferral_window;
      validate = config.validate;
      journal = config.journal;
    }

let summarize ~label ~config ~elapsed results =
  let metric f = Array.of_list (List.map f results) in
  let o = metric (fun r -> r.Sim.overhead_per_job_s) in
  let t = metric (fun r -> r.Sim.avg_turnaround_s) in
  let ci samples =
    if Array.length samples >= 2 then
      Some (Simstats.Confidence.of_samples samples)
    else None
  in
  let mean samples =
    Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples)
  in
  let late_total =
    List.fold_left (fun acc r -> acc + r.Sim.n_late) 0 results
  in
  let jobs_total =
    List.fold_left (fun acc r -> acc + r.Sim.jobs_total) 0 results
  in
  {
    label;
    config;
    o_s = ci o;
    t_s = ci t;
    p_late = float_of_int late_total /. float_of_int jobs_total;
    n_late_mean =
      float_of_int late_total /. float_of_int (List.length results);
    o_mean = mean o;
    t_mean = mean t;
    solves_mean =
      mean (metric (fun r -> float_of_int r.Sim.solves));
    elapsed_s = elapsed;
    metrics =
      (match List.filter_map (fun r -> r.Sim.metrics) results with
      | [] -> None
      | snaps -> Some (Obs.Metrics.merge_all snaps));
  }

let replicate ~label ~config ~make_jobs ~cluster =
  let t0 = Obs.Clock.now () in
  let results =
    List.init config.reps (fun i ->
        let seed = config.base_seed + (7919 * i) in
        let jobs = make_jobs ~seed in
        let driver = make_driver config cluster ~seed in
        let chaos =
          match config.chaos with
          | None -> Opensim.Chaos.no_faults
          | Some c -> Opensim.Chaos.materialize c ~cluster ~jobs ~seed:(seed + 61)
        in
        Sim.run ~validate:config.validate ?journal:config.journal
          ?metrics_every:config.metrics_every ~chaos ~driver ~jobs ())
  in
  summarize ~label ~config ~elapsed:(Obs.Clock.now () -. t0) results

let run_synthetic ?label ?(m = 50) ?(map_capacity = 2) ?(reduce_capacity = 2)
    ~params ~config () =
  let cluster = T.uniform_cluster ~m ~map_capacity ~reduce_capacity in
  let params = { params with Mapreduce.Synthetic.n_jobs = config.n_jobs } in
  let label =
    Option.value label
      ~default:
        (Format.asprintf "%s %a"
           (Opensim.Driver.kind_to_string config.manager)
           Mapreduce.Synthetic.pp_params params)
  in
  let make_jobs ~seed = Mapreduce.Synthetic.generate params ~cluster ~seed in
  replicate ~label ~config ~make_jobs ~cluster

let run_facebook ?label ~params ~config () =
  let cluster = Mapreduce.Facebook.cluster () in
  let params = { params with Mapreduce.Facebook.n_jobs = config.n_jobs } in
  let label =
    Option.value label
      ~default:
        (Printf.sprintf "%s facebook lambda=%g"
           (Opensim.Driver.kind_to_string config.manager)
           params.Mapreduce.Facebook.lambda)
  in
  let make_jobs ~seed = Mapreduce.Facebook.generate params ~cluster ~seed in
  replicate ~label ~config ~make_jobs ~cluster

let point_headers = [ "point"; "O (s/job)"; "T (s)"; "P"; "N/rep"; "wall (s)" ]

let fmt_ci fmt_mean = function
  | Some (ci : Simstats.Confidence.interval) ->
      Printf.sprintf "%s ±%.1f%%" (fmt_mean ci.Simstats.Confidence.mean)
        (100. *. Simstats.Confidence.relative_half_width ci)
  | None -> "n/a"

let point_row p =
  [
    p.label;
    (match p.o_s with
    | Some _ -> fmt_ci Report.Table.fmt_seconds p.o_s
    | None -> Report.Table.fmt_seconds p.o_mean);
    (match p.t_s with
    | Some _ -> fmt_ci (fun x -> Report.Table.fmt_float ~decimals:1 x) p.t_s
    | None -> Report.Table.fmt_float ~decimals:1 p.t_mean);
    Report.Table.fmt_pct p.p_late;
    Report.Table.fmt_float ~decimals:1 p.n_late_mean;
    Report.Table.fmt_float ~decimals:1 p.elapsed_s;
  ]
