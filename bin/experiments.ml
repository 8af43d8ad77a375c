(* Regenerate every table/figure of the paper's evaluation (§VI).

   Usage:
     dune exec bin/experiments.exe -- fig7
     dune exec bin/experiments.exe -- all --reps 5 --jobs 400 --out results/
     dune exec bin/experiments.exe -- fig2 --fb-jobs 300

   Each figure prints an ASCII table (and optionally writes CSV).  Shapes to
   compare against the paper are recorded in EXPERIMENTS.md. *)

open Cmdliner

(* Every figure, in the order [all] runs them.  The figure's own [id] names
   its CSV file. *)
let figures =
  [
    ("fig2-3", fun config ~lambdas -> Expkit.Figures.fig2_3 ~config ~lambdas);
    ("fig4", fun config ~lambdas:_ -> Expkit.Figures.fig4 ~config);
    ("fig5", fun config ~lambdas:_ -> Expkit.Figures.fig5 ~config);
    ("fig6", fun config ~lambdas:_ -> Expkit.Figures.fig6 ~config);
    ("fig7", fun config ~lambdas:_ -> Expkit.Figures.fig7 ~config);
    ("fig8", fun config ~lambdas:_ -> Expkit.Figures.fig8 ~config);
    ("fig9", fun config ~lambdas:_ -> Expkit.Figures.fig9 ~config);
    ( "ablation-ordering",
      fun config ~lambdas:_ -> Expkit.Figures.ablation_ordering ~config );
    ("ablation-cp", fun config ~lambdas:_ -> Expkit.Figures.ablation_cp ~config);
    ( "ablation-deferral",
      fun config ~lambdas:_ -> Expkit.Figures.ablation_deferral ~config );
  ]

let all_ids = List.map fst figures

(* Fig. 2 and Fig. 3 are one set of runs. *)
let aliases = [ ("fig2", "fig2-3"); ("fig3", "fig2-3") ]

let valid_ids = List.map fst aliases @ all_ids @ [ "all" ]

(* Expand [all] and the aliases, refusing an unknown id before any figure
   runs. *)
let expand ids =
  let ids =
    List.concat_map
      (fun id ->
        if id = "all" then all_ids
        else [ Option.value (List.assoc_opt id aliases) ~default:id ])
      ids
  in
  match List.find_opt (fun id -> not (List.mem_assoc id figures)) ids with
  | None -> Ok ids
  | Some id ->
      Error
        (`Msg
          (Printf.sprintf "unknown figure %S (valid: %s)" id
             (String.concat ", " valid_ids)))

(* The workload generators reject out-of-range parameters with
   [Invalid_argument].  Run their checks on the values the flags set before
   any figure runs, so that a bad flag is a usage error (exit 124) rather
   than an internal error. *)
let check_inputs ~jobs ~fb_jobs ~lambdas =
  match
    Mapreduce.Synthetic.validate
      { Mapreduce.Synthetic.default with Mapreduce.Synthetic.n_jobs = jobs };
    List.iter
      (fun lambda ->
        Mapreduce.Facebook.validate
          {
            Mapreduce.Facebook.default with
            Mapreduce.Facebook.n_jobs = fb_jobs;
            lambda;
          })
      lambdas
  with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error (`Msg msg)

let run_ids ids reps jobs fb_jobs seed budget out validate lambdas trace_out
    metrics journal_out metrics_every metrics_out trace_limit =
  match
    Result.bind (check_inputs ~jobs ~fb_jobs ~lambdas) (fun () -> expand ids)
  with
  | Error _ as error -> error
  | Ok ids ->
  let journal = Option.map (fun _ -> Obs.Journal.create ()) journal_out in
  let base =
    {
      Expkit.Runner.default_config with
      Expkit.Runner.reps;
      base_seed = seed;
      solver_time_limit = budget;
      validate;
      instrument = metrics;
      journal;
      metrics_every =
        Option.map (fun s -> int_of_float (1000. *. s)) metrics_every;
    }
  in
  if trace_out <> None then Obs.Trace.start ?limit:trace_limit ();
  let all_metrics = ref [] in
  List.iter
    (fun id ->
      let config =
        (* the Facebook comparison uses its own job count: 1000 in the paper *)
        if id = "fig2-3" then { base with Expkit.Runner.n_jobs = fb_jobs }
        else { base with Expkit.Runner.n_jobs = jobs }
      in
      let t0 = Unix.gettimeofday () in
      let fig = (List.assoc id figures) config ~lambdas in
      print_string (Expkit.Figures.render fig);
      Printf.printf "(generated in %.1fs)\n\n%!" (Unix.gettimeofday () -. t0);
      (match
         List.filter_map
           (fun p -> p.Expkit.Runner.metrics)
           fig.Expkit.Figures.points
       with
      | [] -> ()
      | snaps ->
          all_metrics := snaps @ !all_metrics;
          if metrics then begin
            print_string
              (Report.Obs_report.summary (Obs.Metrics.merge_all snaps));
            (match Obs.Trace.dropped () with
            | 0 -> ()
            | n ->
                Printf.printf "trace: dropped %d events (--trace-limit)\n" n);
            print_newline ()
          end);
      match out with
      | Some dir ->
          (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let path = Filename.concat dir (fig.Expkit.Figures.id ^ ".csv") in
          Report.Table.write_file ~path (Expkit.Figures.to_csv fig);
          Printf.printf "wrote %s\n\n%!" path
      | None -> ())
    ids;
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
      Printf.printf "journal: %d events written to %s\n" (Obs.Journal.events j)
        path
  | _ -> ());
  (match metrics_out with
  | Some path -> (
      match !all_metrics with
      | [] ->
          Printf.eprintf
            "warning: --metrics-out needs solver instrumentation; pass \
             --metrics\n"
      | snaps ->
          let oc = open_out path in
          output_string oc
            (Obs.Json.to_string (Obs.Metrics.to_json (Obs.Metrics.merge_all snaps)));
          output_char oc '\n';
          close_out oc;
          Printf.printf "metrics: snapshot written to %s\n" path)
  | None -> ());
  Ok 0

let ids_arg =
  let doc =
    "Figures to regenerate: " ^ String.concat ", " valid_ids
    ^ " ('all' runs every figure once)."
  in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"FIGURE" ~doc)

let reps = Arg.(value & opt int 3 & info [ "reps" ] ~doc:"Replications per point.")
let jobs = Arg.(value & opt int 200 & info [ "jobs" ] ~doc:"Jobs per synthetic run.")

let fb_jobs =
  Arg.(value & opt int 300
       & info [ "fb-jobs" ] ~doc:"Jobs per Facebook-workload run (paper: 1000).")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base random seed.")

let budget =
  Arg.(value & opt float 0.2
       & info [ "budget" ] ~doc:"CP solver time budget per invocation (s).")

let out =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~doc:"Directory for CSV output.")

let validate =
  Arg.(value & flag
       & info [ "validate" ]
           ~doc:"Run the full feasibility oracle during simulation (slow).")

let lambdas =
  Arg.(value & opt (list float) [ 0.0001; 0.0002; 0.0003; 0.0004; 0.0005 ]
       & info [ "lambdas" ] ~doc:"Arrival rates for the Facebook comparison.")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace" ]
           ~doc:"Write a Chrome-trace-format JSON file covering every \
                 figure run (open in chrome://tracing or Perfetto).")

let metrics =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Instrument the solver and print the merged \
                 counter/histogram and per-propagator tables per figure.")

let journal_out =
  Arg.(value & opt (some string) None
       & info [ "journal" ]
           ~doc:"Write the structured decision journal (JSONL) covering \
                 every figure run to this file; audit with mrcp_audit.")

let metrics_every =
  Arg.(value & opt (some float) None
       & info [ "metrics-every" ]
           ~doc:"With --journal: append a metrics snapshot event every T \
                 seconds of virtual time.")

let metrics_out =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ]
           ~doc:"Write the final merged metrics snapshot as JSON to this \
                 file (requires --metrics).")

let trace_limit =
  Arg.(value & opt (some int) None
       & info [ "trace-limit" ]
           ~doc:"With --trace: the most events to record; later ones are \
                 dropped (the drop count is reported in the --metrics \
                 summary).")

let cmd =
  let term =
    Term.term_result ~usage:true
    @@ Term.(
      const run_ids
      $ ids_arg $ reps $ jobs $ fb_jobs $ seed $ budget $ out $ validate
      $ lambdas $ trace_out $ metrics $ journal_out $ metrics_every
      $ metrics_out $ trace_limit)
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures")
    term

let () = exit (Cmd.eval' cmd)
