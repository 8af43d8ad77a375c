(* Decision-journal tests: determinism (same seed ⇒ identical canonical
   journal), the quantile estimator at bucket boundaries, the audit tool's
   independent recomputation oracle, and the zero-cost-when-off guarantee
   (journaling must not perturb the solver trajectory). *)

module T = Mapreduce.Types
module M = Obs.Metrics

(* The acceptance workload: the contended λ=0.05 / 40-job / 4-host variant
   of the Fig. 2 setup, with the job parameters of each episode of
   perfbench's contended-episodes workload.  fail_limit (not the wall clock) cuts every exact search, so
   trajectories — and hence journals — are deterministic. *)
let cluster = T.uniform_cluster ~m:4 ~map_capacity:2 ~reduce_capacity:2

let params =
  {
    Mapreduce.Synthetic.default with
    Mapreduce.Synthetic.n_jobs = 40;
    lambda = 0.05;
    map_tasks_max = 12;
    reduce_tasks_max = 4;
    e_max = 25;
    s_max = 100;
    d_m = 1.5;
  }

let solver_options =
  {
    Cp.Solver.default_options with
    Cp.Solver.exact_task_limit = 400;
    fail_limit = 2_000;
  }

let run_sim ?journal ?metrics_every ?(fail_limit = 2_000) ~seed () =
  let jobs = Mapreduce.Synthetic.generate params ~cluster ~seed in
  let mgr =
    Mrcp.Manager.create ~cluster
      {
        Mrcp.Manager.default_config with
        Mrcp.Manager.solver = { solver_options with Cp.Solver.fail_limit };
        journal;
      }
  in
  let driver = Opensim.Driver.of_mrcp mgr in
  let r = Opensim.Simulator.run ?journal ?metrics_every ~driver ~jobs () in
  (r, mgr)

(* --- determinism -------------------------------------------------------- *)

let test_determinism () =
  let journal_of seed =
    let j = Obs.Journal.create () in
    ignore (run_sim ~journal:j ~seed ());
    Obs.Journal.to_string j
  in
  let a = journal_of 42 and b = journal_of 42 in
  Alcotest.(check string)
    "same-seed canonical fingerprints equal" (Obs.Journal.fingerprint a)
    (Obs.Journal.fingerprint b);
  (* stronger than the hash: the canonical (wall-stripped) lines are
     byte-identical *)
  let canon text =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.map Obs.Journal.canonical_line
  in
  List.iter2
    (fun la lb -> Alcotest.(check string) "canonical line" la lb)
    (canon a) (canon b);
  let c = journal_of 43 in
  Alcotest.(check bool)
    "different seed, different journal" false
    (Obs.Journal.fingerprint a = Obs.Journal.fingerprint c)

let test_lines_parse () =
  let j = Obs.Journal.create () in
  ignore (run_sim ~journal:j ~metrics_every:500_000 ~seed:42 ());
  let lines =
    String.split_on_char '\n' (Obs.Journal.to_string j)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "journal nonempty" true (List.length lines > 0);
  List.iteri
    (fun i line ->
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "line %d does not parse: %s" (i + 1) e
      | Ok ev ->
          Alcotest.(check (option int))
            "versioned" (Some Obs.Journal.version)
            (Option.bind (Obs.Json.member "v" ev) Obs.Json.to_int_opt);
          Alcotest.(check (option int))
            "seq contiguous" (Some i)
            (Option.bind (Obs.Json.member "seq" ev) Obs.Json.to_int_opt))
    lines;
  Alcotest.(check bool) "snapshots present" true
    (List.exists
       (fun l ->
         match Obs.Json.of_string l with
         | Ok ev ->
             Option.bind (Obs.Json.member "ev" ev) Obs.Json.to_string_opt
             = Some "snapshot"
         | Error _ -> false)
       lines)

(* --- quantiles ---------------------------------------------------------- *)

let histo_of values =
  let r = M.create () in
  let h = M.histogram r "t" in
  List.iter (M.observe h) values;
  match M.find_histo (M.snapshot r) "t" with
  | Some h -> h
  | None -> Alcotest.fail "histogram missing from snapshot"

let test_quantile_boundaries () =
  (* empty: nan *)
  let empty = histo_of [] in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (M.quantile empty 0.5));
  (* single observation: every quantile is that value *)
  let one = histo_of [ 3.5 ] in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.)) "single value" 3.5 (M.quantile one q))
    [ 0.; 0.25; 0.5; 1. ];
  (* q=0 and q=1 are exactly vmin/vmax even across buckets *)
  let spread = histo_of [ 0.001; 0.4; 7.25; 1024. ] in
  Alcotest.(check (float 0.)) "q=0 is vmin" 0.001 (M.quantile spread 0.);
  Alcotest.(check (float 0.)) "q=1 is vmax" 1024. (M.quantile spread 1.);
  (* every observation on its bucket's lower bound: ranks are exact.
     2^-2, 2^0, 2^3 are bucket lower bounds of distinct buckets; nearest
     rank is ceil(q*3), so q in (0,1/3] -> 0.25, (1/3,2/3] -> 1.0,
     (2/3,1] -> 8.0 *)
  let exact = histo_of [ 0.25; 1.0; 8.0 ] in
  Alcotest.(check (float 1e-12)) "boundary p-low" 0.25 (M.quantile exact 0.3);
  Alcotest.(check (float 1e-12)) "boundary p-mid" 1.0 (M.quantile exact 0.5);
  Alcotest.(check (float 1e-12)) "boundary p-high" 8.0 (M.quantile exact 0.99);
  (* same-bucket data: interpolation stays within [vmin, vmax] *)
  let tight = histo_of [ 1.0; 1.3; 1.9 ] in
  let p50 = M.quantile tight 0.5 in
  Alcotest.(check bool) "clamped to observed range" true (p50 >= 1.0 && p50 <= 1.9)

let test_prometheus_render () =
  let r = M.create () in
  M.add (M.counter r "solver/solves") 3;
  M.set_gauge (M.gauge r "queue-depth") 2.5;
  let h = M.histogram r "invoke/elapsed_s" in
  List.iter (M.observe h) [ 0.25; 1.0; 8.0 ];
  let text = M.to_prometheus (M.snapshot r) in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
    [
      "# TYPE mrcp_solver_solves_total counter";
      "mrcp_solver_solves_total 3";
      "# TYPE mrcp_queue_depth gauge";
      "mrcp_queue_depth 2.5";
      "# TYPE mrcp_invoke_elapsed_s histogram";
      "mrcp_invoke_elapsed_s_bucket{le=\"+Inf\"} 3";
      "mrcp_invoke_elapsed_s_count 3";
      "mrcp_invoke_elapsed_s_sum 9.25";
    ]

let test_quantile_monotone () =
  let h = histo_of [ 0.01; 0.02; 0.5; 0.5; 3.0; 47.0; 47.0; 100.0 ] in
  let qs = [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ] in
  let vals = List.map (M.quantile h) qs in
  let rec mono = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "monotone" true (a <= b);
        mono rest
    | _ -> ()
  in
  mono vals

(* --- audit oracle ------------------------------------------------------- *)

let test_audit_crosscheck () =
  let j = Obs.Journal.create () in
  let r, mgr = run_sim ~journal:j ~seed:42 () in
  let rep =
    match Report.Audit.of_string (Obs.Journal.to_string j) with
    | Ok rep -> rep
    | Error e -> Alcotest.failf "audit parse failed: %s" e
  in
  Alcotest.(check bool) "all cross-checks pass" true (Report.Audit.checks_ok rep);
  Alcotest.(check int)
    "recomputed Σ N_j = simulator N" r.Opensim.Simulator.n_late
    rep.Report.Audit.n_late;
  Alcotest.(check int)
    "one job-done per job" r.Opensim.Simulator.jobs_total
    (List.length rep.Report.Audit.jobs);
  Alcotest.(check int)
    "one invoke per solve"
    (Mrcp.Manager.solve_count mgr)
    rep.Report.Audit.invokes;
  (* exact: the audit replays the same float additions in the same order *)
  Alcotest.(check bool)
    "recomputed O total bitwise-equal" true
    (Float.equal
       (Mrcp.Manager.overhead_seconds mgr)
       rep.Report.Audit.total_overhead_s);
  (* the manager's and the solver's phase timers are disjoint
     sub-intervals of each pass, and the seed's parts add up to it *)
  let open Report.Audit in
  Alcotest.(check bool) "seed phase timed" true (rep.seed_s > 0.);
  Alcotest.(check bool) "classify phase timed" true (rep.classify_s > 0.);
  Alcotest.(check bool) "match phase timed" true (rep.match_s > 0.);
  Alcotest.(check bool) "bound part timed" true (rep.bound_s > 0.);
  Alcotest.(check bool) "seed parts add up" true
    (Float.abs (rep.bound_s +. rep.warm_s +. rep.list_s -. rep.seed_s)
    <= 1e-9 *. (1. +. rep.seed_s));
  Alcotest.(check bool) "phases within O" true
    (rep.classify_s +. rep.seed_s +. rep.sync_s +. rep.search_s +. rep.match_s
    <= rep.total_overhead_s *. (1. +. 1e-9));
  (* the renderers should not raise on a real report *)
  Alcotest.(check bool) "render nonempty" true
    (String.length (Report.Audit.render rep) > 0);
  match rep.Report.Audit.jobs with
  | j0 :: _ ->
      Alcotest.(check bool) "timeline nonempty" true
        (String.length (Report.Audit.render_timeline rep j0.Report.Audit.job) > 0)
  | [] -> Alcotest.fail "no jobs in audit report"

let test_audit_rejects_garbage () =
  (match Report.Audit.of_string "not json\n" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e ->
      Alcotest.(check bool) "names the line" true
        (String.length e > 0 && String.sub e 0 6 = "line 1"));
  (match
    Report.Audit.of_string
      {|{"v":4,"seq":0,"t":0,"ev":"arrival","job":0,"est":0,"deadline":1,"tasks":1}|}
  with
  | Ok _ -> Alcotest.fail "accepted future version"
  | Error _ -> ());
  match
    Report.Audit.of_string
      {|{"v":3,"seq":0,"t":0,"ev":"invoke","wall":{"elapsed_s":0.1,"seed_s":-1.0}}|}
  with
  | Ok _ -> Alcotest.fail "accepted a negative phase timer"
  | Error e ->
      Alcotest.(check string) "names the line and the key"
        "line 1: wall.seed_s must be a non-negative number" e

(* --- zero cost when off ------------------------------------------------- *)

let test_journaling_off_bit_identity () =
  let j = Obs.Journal.create () in
  let r_on, mgr_on = run_sim ~journal:j ~seed:42 () in
  let r_off, mgr_off = run_sim ~seed:42 () in
  let open Opensim.Simulator in
  Alcotest.(check int) "n_late" r_off.n_late r_on.n_late;
  Alcotest.(check int) "makespan" r_off.makespan_ms r_on.makespan_ms;
  Alcotest.(check int) "events" r_off.events_executed r_on.events_executed;
  Alcotest.(check int) "solves" r_off.solves r_on.solves;
  Alcotest.(check (list (pair int int)))
    "per-job completions identical"
    (List.map (fun o -> (o.job.T.id, o.completion)) r_off.outcomes)
    (List.map (fun o -> (o.job.T.id, o.completion)) r_on.outcomes);
  (* the solver saw bit-identical searches, not just equal outcomes *)
  match (Mrcp.Manager.last_solver_stats mgr_off,
         Mrcp.Manager.last_solver_stats mgr_on) with
  | Some off, Some on ->
      Alcotest.(check int) "nodes" off.Cp.Solver.nodes on.Cp.Solver.nodes;
      Alcotest.(check int) "failures" off.Cp.Solver.failures
        on.Cp.Solver.failures;
      Alcotest.(check bool) "stop reason" true
        (off.Cp.Solver.stop_reason = on.Cp.Solver.stop_reason)
  | _ -> Alcotest.fail "missing solver stats"

(* --- stop reasons ------------------------------------------------------- *)

let test_stop_reason_fail_limit () =
  let j = Obs.Journal.create () in
  (* a 2-failure budget cannot finish the contended searches: the journal
     must attribute those stops to the failure budget, not the wall clock *)
  ignore (run_sim ~journal:j ~fail_limit:2 ~seed:42 ());
  let rep =
    match Report.Audit.of_string (Obs.Journal.to_string j) with
    | Ok rep -> rep
    | Error e -> Alcotest.failf "audit parse failed: %s" e
  in
  Alcotest.(check bool) "fail_limit stops recorded" true
    (List.mem_assoc "fail_limit" rep.Report.Audit.stop_reasons);
  Alcotest.(check bool) "no wall_limit stops" false
    (List.mem_assoc "wall_limit" rep.Report.Audit.stop_reasons)

(* The writer emits ints digit by digit and copies strings that need no
   escaping as they are: ints must print as [string_of_int] does, and any
   string (control characters, quotes, backslashes) must parse back. *)
let prop_json_ints_and_strings =
  QCheck.Test.make ~count:500
    ~name:"ints print as string_of_int, strings round-trip"
    QCheck.(
      pair
        (oneof [ int; int_range (-20) 20; always min_int; always max_int ])
        (string_gen_of_size Gen.(int_range 0 12) Gen.char))
    (fun (i, str) ->
      Obs.Json.to_string (Obs.Json.Int i) = string_of_int i
      && Obs.Json.of_string (Obs.Json.to_string (Obs.Json.String str))
         = Ok (Obs.Json.String str)
      && Obs.Json.of_string
           (Obs.Json.to_string (Obs.Json.Obj [ (str, Obs.Json.Int i) ]))
         = Ok (Obs.Json.Obj [ (str, Obs.Json.Int i) ]))

let () =
  Alcotest.run "journal"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same canonical journal" `Slow
            test_determinism;
          Alcotest.test_case "every line parses, seq contiguous" `Slow
            test_lines_parse;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            test_quantile_boundaries;
          Alcotest.test_case "monotone in q" `Quick test_quantile_monotone;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_render;
        ] );
      ( "audit",
        [
          Alcotest.test_case "recomputation oracle" `Slow test_audit_crosscheck;
          Alcotest.test_case "rejects malformed input" `Quick
            test_audit_rejects_garbage;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "journaling-off bit-identity" `Slow
            test_journaling_off_bit_identity;
        ] );
      ( "stop-reason",
        [
          Alcotest.test_case "fail budget attribution" `Slow
            test_stop_reason_fail_limit;
        ] );
      ("json", [ QCheck_alcotest.to_alcotest prop_json_ints_and_strings ]);
    ]
