(* Single-configuration simulation CLI.

   Examples:
     dune exec bin/mrcp_sim.exe -- --jobs 100 --lambda 0.01 --manager mrcp-rm
     dune exec bin/mrcp_sim.exe -- --workload facebook --jobs 200 \
       --lambda 0.0003 --manager minedf-wc
     dune exec bin/mrcp_sim.exe -- --jobs 50 --d-m 2 --validate -v
     dune exec bin/mrcp_sim.exe -- --jobs 40 --d-m 1.05 --metrics \
       --trace run.jsonl *)

open Cmdliner

type workload = Synthetic | Facebook

let print_metrics = function
  | Some snap -> print_string (Report.Obs_report.summary snap)
  | None ->
      print_endline
        "no metrics collected (manager without solver instrumentation)"

let print_trace_drops () =
  match Obs.Trace.dropped () with
  | 0 -> ()
  | n -> Printf.printf "trace: dropped %d events (--trace-limit)\n" n

let write_metrics_out path = function
  | Some snap ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string (Obs.Metrics.to_json snap));
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics: snapshot written to %s\n" path
  | None ->
      Printf.eprintf
        "warning: --metrics-out needs solver instrumentation; pass --metrics\n"

(* The workload generators and [uniform_cluster] reject out-of-range
   parameters with [Invalid_argument].  Run the checks of the ones this
   invocation uses before any simulation work, so that a bad flag is a usage
   error (exit 124) rather than an internal error. *)
let check_inputs ~workload ~replay ~synthetic ~facebook ~cluster =
  match
    match (replay, workload) with
    | Some _, _ -> ignore (cluster ())
    | None, Synthetic ->
        ignore (cluster ());
        Mapreduce.Synthetic.validate synthetic
    | None, Facebook -> Mapreduce.Facebook.validate facebook
  with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error (`Msg msg)

let run workload manager jobs lambda e_max p s_max d_m m map_cap reduce_cap
    seed budget ordering deferral validate verbose replay trace_out
    metrics journal_out metrics_every metrics_out trace_limit crash_rate
    straggler_p straggler_factor task_fail_p =
  let synthetic =
    {
      Mapreduce.Synthetic.default with
      Mapreduce.Synthetic.n_jobs = jobs;
      e_max;
      p;
      s_max;
      d_m;
      lambda;
    }
  in
  let facebook =
    { Mapreduce.Facebook.default with Mapreduce.Facebook.n_jobs = jobs; lambda }
  in
  let cluster () =
    Mapreduce.Types.uniform_cluster ~m ~map_capacity:map_cap
      ~reduce_capacity:reduce_cap
  in
  match check_inputs ~workload ~replay ~synthetic ~facebook ~cluster with
  | Error _ as error -> error
  | Ok () ->
  let chaos =
    if crash_rate = 0. && straggler_p = 0. && task_fail_p = 0. then None
    else
      Some
        {
          Opensim.Chaos.default with
          Opensim.Chaos.crash_rate;
          straggler_p;
          straggler_factor = (1.5, max 1.5 straggler_factor);
          task_failure_p = task_fail_p;
        }
  in
  let journal = Option.map (fun _ -> Obs.Journal.create ()) journal_out in
  let metrics_every =
    Option.map (fun s -> int_of_float (1000. *. s)) metrics_every
  in
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let config =
    {
      Expkit.Runner.n_jobs = jobs;
      reps = 1;
      base_seed = seed;
      manager;
      ordering;
      solver_time_limit = budget;
      deferral_window = deferral;
      validate;
      instrument = metrics;
      journal;
      metrics_every;
      chaos;
    }
  in
  if trace_out <> None then Obs.Trace.start ?limit:trace_limit ();
  let finish code =
    (match trace_out with
    | Some path ->
        Obs.Trace.stop ();
        Obs.Trace.write ~path;
        Printf.printf "trace: %d events written to %s\n"
          (Obs.Trace.events_recorded ())
          path
    | None -> ());
    (match (journal_out, journal) with
    | Some path, Some j ->
        Obs.Journal.write j ~path;
        Printf.printf "journal: %d events written to %s\n"
          (Obs.Journal.events j) path
    | _ -> ());
    Ok code
  in
  finish
  @@
  match replay with
  | Some path -> begin
      (* replay a saved trace (see bin/workload_gen.exe) on the given cluster *)
      let loaded =
        match Mapreduce.Trace.load ~path with
        | Ok jobs when Opensim.Driver.plan_based manager ->
            (* the matchmaker takes unit demands only: refuse the trace now
               rather than mid-simulation *)
            Result.map
              (fun () -> jobs)
              (Mrcp.Matchmaker.check_unit_demands jobs)
        | loaded -> loaded
      in
      match loaded with
      | Error e ->
          Printf.eprintf "error loading %s: %s\n" path e;
          1
      | Ok trace_jobs ->
          let cluster = cluster () in
          let driver = Expkit.Runner.make_driver config cluster in
          let plan =
            match chaos with
            | None -> Opensim.Chaos.no_faults
            | Some c ->
                Opensim.Chaos.materialize c ~cluster ~jobs:trace_jobs
                  ~seed:(seed + 61)
          in
          let r =
            Opensim.Simulator.run ~validate ?journal ?metrics_every ~cluster
              ~chaos:plan ~driver ~jobs:trace_jobs ()
          in
          Format.printf "%a@." Opensim.Simulator.pp_results r;
          (match (r.Opensim.Simulator.map_utilization,
                  r.Opensim.Simulator.reduce_utilization) with
          | Some mu, Some ru ->
              Format.printf "utilization: map %.1f%%, reduce %.1f%%@."
                (100. *. mu) (100. *. ru)
          | _ -> ());
          if metrics then begin
            print_metrics r.Opensim.Simulator.metrics;
            print_trace_drops ()
          end;
          Option.iter
            (fun path -> write_metrics_out path r.Opensim.Simulator.metrics)
            metrics_out;
          0
    end
  | None ->
  let point =
    match workload with
    | Synthetic ->
        Expkit.Runner.run_synthetic ~m ~map_capacity:map_cap
          ~reduce_capacity:reduce_cap ~params:synthetic ~config ()
    | Facebook -> Expkit.Runner.run_facebook ~params:facebook ~config ()
  in
  print_string
    (Report.Table.render ~headers:Expkit.Runner.point_headers
       ~rows:[ Expkit.Runner.point_row point ]
       ());
  if metrics then begin
    print_metrics point.Expkit.Runner.metrics;
    print_trace_drops ()
  end;
  Option.iter
    (fun path -> write_metrics_out path point.Expkit.Runner.metrics)
    metrics_out;
  0

let workload_conv =
  Arg.enum [ ("synthetic", Synthetic); ("facebook", Facebook) ]

let manager_conv = Arg.enum Opensim.Driver.kinds

let ordering_conv =
  Arg.enum
    [
      ("job-id", Sched.Greedy.By_job_id);
      ("edf", Sched.Greedy.Edf);
      ("least-laxity", Sched.Greedy.Least_laxity);
    ]

let term =
  Term.term_result ~usage:true
  @@ Term.(
    const run
    $ Arg.(value & opt workload_conv Synthetic
           & info [ "workload" ] ~doc:"synthetic (Table 3) or facebook (Table 4).")
    $ Arg.(value & opt manager_conv Opensim.Driver.Mrcp_rm
           & info [ "manager" ]
               ~doc:("The resource manager: "
                     ^ doc_alts_enum Opensim.Driver.kinds ^ "."))
    $ Arg.(value & opt int 100 & info [ "jobs" ] ~doc:"Number of jobs.")
    $ Arg.(value & opt float 0.01 & info [ "lambda" ] ~doc:"Arrival rate, jobs/s.")
    $ Arg.(value & opt int 50 & info [ "e-max" ] ~doc:"Map-task time bound, s.")
    $ Arg.(value & opt float 0.5 & info [ "p" ] ~doc:"P(s_j > arrival).")
    $ Arg.(value & opt int 50_000 & info [ "s-max" ] ~doc:"AR offset bound, s.")
    $ Arg.(value & opt float 5.0 & info [ "d-m" ] ~doc:"Deadline multiplier bound.")
    $ Arg.(value & opt int 50 & info [ "m" ] ~doc:"Number of resources.")
    $ Arg.(value & opt int 2 & info [ "map-cap" ] ~doc:"Map slots per resource.")
    $ Arg.(value & opt int 2 & info [ "reduce-cap" ] ~doc:"Reduce slots per resource.")
    $ Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")
    $ Arg.(value & opt float 0.2 & info [ "budget" ] ~doc:"CP time budget (s).")
    $ Arg.(value & opt ordering_conv Sched.Greedy.Edf
           & info [ "ordering" ] ~doc:"MRCP-RM job ordering strategy.")
    $ Arg.(value & opt (some int) (Some 300_000)
           & info [ "deferral" ] ~doc:"Deferral window in ms (§V.E).")
    $ Arg.(value & flag & info [ "validate" ] ~doc:"Full feasibility oracle.")
    $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")
    $ Arg.(value & opt (some string) None
           & info [ "replay" ]
               ~doc:"Replay a saved workload trace (CSV) instead of generating.")
    $ Arg.(value & opt (some string) None
           & info [ "trace" ]
               ~doc:"Write a Chrome-trace-format JSON file of scheduler, \
                     search and simulator spans (open in chrome://tracing or \
                     Perfetto).")
    $ Arg.(value & flag
           & info [ "metrics" ]
               ~doc:"Instrument the solver and print counter/histogram and \
                     per-propagator fire/fail/time tables after the run.")
    $ Arg.(value & opt (some string) None
           & info [ "journal" ]
               ~doc:"Write the structured decision journal (JSONL, one event \
                     per admission decision, scheduling pass, SLA transition \
                     and job completion) to this file.  Feed it to \
                     mrcp_audit for per-job timelines and lateness \
                     attribution.")
    $ Arg.(value & opt (some float) None
           & info [ "metrics-every" ]
               ~doc:"With --journal: append a metrics snapshot event to the \
                     journal every T seconds of virtual time.")
    $ Arg.(value & opt (some string) None
           & info [ "metrics-out" ]
               ~doc:"Write the final metrics snapshot as JSON to this file \
                     (requires --metrics for solver instrumentation).")
    $ Arg.(value & opt (some int) None
           & info [ "trace-limit" ]
               ~doc:"With --trace: the most events to record; later ones \
                     are dropped (the drop count is reported in the \
                     --metrics summary).")
    $ Arg.(value & opt float 0.
           & info [ "crash-rate" ]
               ~doc:"Chaos: expected resource crashes per resource per second \
                     of virtual time (Poisson hazard; crashed resources \
                     rejoin after 30-120 s unless retired).  0 disables.")
    $ Arg.(value & opt float 0.
           & info [ "straggler-p" ]
               ~doc:"Chaos: per-attempt probability that a task attempt runs \
                     inflated (a straggler).  0 disables.")
    $ Arg.(value & opt float 3.0
           & info [ "straggler-factor" ]
               ~doc:"Chaos: upper bound of the straggler inflation factor \
                     (lower bound 1.5).")
    $ Arg.(value & opt float 0.
           & info [ "task-fail-p" ]
               ~doc:"Chaos: per-attempt task failure probability (at most 2 \
                     injected failures per task; failed attempts re-execute \
                     from scratch).  0 disables."))

let cmd =
  Cmd.v
    (Cmd.info "mrcp_sim"
       ~doc:"Run one open-system MapReduce-with-SLAs simulation")
    term

let () = exit (Cmd.eval' cmd)
