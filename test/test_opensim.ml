(* End-to-end simulation tests: MRCP-RM and the slot schedulers driving real
   workloads through the event simulator with the full validation oracle on
   (slot exclusivity, precedence, earliest start times). *)

module T = Mapreduce.Types
module Sim = Opensim.Simulator

let mk_job = Gen.mk_job

let mrcp_driver ?(config = Mrcp.Manager.default_config) cluster =
  let config = { config with Mrcp.Manager.validate = true } in
  Opensim.Driver.of_mrcp (Mrcp.Manager.create ~cluster config)

let slot_driver policy cluster =
  Opensim.Driver.of_slot_scheduler
    (Baselines.Slot_scheduler.create ~cluster ~policy)

let run ?(validate = true) driver jobs = Sim.run ~validate ~driver ~jobs ()

(* --- basic correctness across managers ---------------------------------- *)

let all_drivers cluster =
  [
    ("mrcp", mrcp_driver cluster);
    ("minedf-wc", slot_driver Baselines.Slot_scheduler.Min_edf_wc cluster);
    ("edf-wc", slot_driver Baselines.Slot_scheduler.Edf_wc cluster);
    ("fcfs-wc", slot_driver Baselines.Slot_scheduler.Fcfs_wc cluster);
  ]

let test_single_job_all_managers () =
  List.iter
    (fun (name, driver) ->
      Gen.reset_tasks ();
      let cluster = () in
      ignore cluster;
      let jobs =
        [ mk_job ~id:0 ~deadline:60_000 ~maps:[ 5000; 8000 ] ~reduces:[ 10_000 ] () ]
      in
      let r = run driver jobs in
      Alcotest.(check int) (name ^ ": completed") 1 r.Sim.jobs_total;
      Alcotest.(check int) (name ^ ": on time") 0 r.Sim.n_late;
      (* maps in parallel (two slots): 8000, then reduce: 18000 *)
      Alcotest.(check int) (name ^ ": makespan") 18_000 r.Sim.makespan_ms)
    (all_drivers (T.uniform_cluster ~m:1 ~map_capacity:2 ~reduce_capacity:1))

let test_open_stream_all_managers () =
  List.iter
    (fun (name, driver) ->
      Gen.reset_tasks ();
      let jobs =
        List.init 10 (fun i ->
            mk_job ~id:i ~arrival:(i * 3000)
              ~deadline:((i * 3000) + 100_000)
              ~maps:[ 4000; 6000 ] ~reduces:[ 5000 ] ())
      in
      let r = run driver jobs in
      Alcotest.(check int) (name ^ ": all jobs done") 10 r.Sim.jobs_total;
      Alcotest.(check int) (name ^ ": none late") 0 r.Sim.n_late)
    (all_drivers (T.uniform_cluster ~m:2 ~map_capacity:2 ~reduce_capacity:2))

let test_ar_jobs_respect_est_all_managers () =
  List.iter
    (fun (name, driver) ->
      Gen.reset_tasks ();
      let jobs =
        [
          mk_job ~id:0 ~arrival:0 ~est:50_000 ~deadline:200_000
            ~maps:[ 1000 ] ~reduces:[ 1000 ] ();
          mk_job ~id:1 ~arrival:1000 ~deadline:100_000 ~maps:[ 2000 ] ~reduces:[] ();
        ]
      in
      (* validation inside the simulator checks no task starts before s_j *)
      let r = run driver jobs in
      Alcotest.(check int) (name ^ ": done") 2 r.Sim.jobs_total;
      let ar =
        List.find (fun o -> o.Sim.job.T.id = 0) r.Sim.outcomes
      in
      Alcotest.(check bool) (name ^ ": AR completion after s_j") true
        (ar.Sim.completion >= 50_000 + 2000))
    (all_drivers (T.uniform_cluster ~m:2 ~map_capacity:1 ~reduce_capacity:1))

let test_turnaround_measured_from_est () =
  (* T is sum(CT - s_j)/n: an AR job idle-waiting does not inflate T *)
  Gen.reset_tasks ();
  let cluster = T.uniform_cluster ~m:1 ~map_capacity:1 ~reduce_capacity:1 in
  let jobs =
    [ mk_job ~id:0 ~arrival:0 ~est:100_000 ~deadline:300_000 ~maps:[ 10_000 ] ~reduces:[] () ]
  in
  let r = run (mrcp_driver cluster) jobs in
  Alcotest.(check bool) "turnaround ~ exec time" true
    (Float.abs (r.Sim.avg_turnaround_s -. 10.) < 0.5);
  Alcotest.(check bool) "turnaround from arrival includes the wait" true
    (r.Sim.avg_turnaround_from_arrival_s >= 110.)

(* Closed-batch consistency: when every job arrives at t=0 the manager
   solves exactly once and the simulator executes that plan verbatim, so the
   simulated late count must equal the CP solution's late count on the same
   instance (deterministic, same default seed). *)
let test_closed_batch_matches_solver () =
  let cluster = T.uniform_cluster ~m:3 ~map_capacity:2 ~reduce_capacity:1 in
  Gen.reset_tasks ();
  let jobs =
    List.init 8 (fun i ->
        mk_job ~id:i
          ~deadline:(20_000 + (6_000 * i))
          ~maps:[ 5000; 4000 ] ~reduces:[ 3000 ] ())
  in
  let inst =
    Sched.Instance.of_fresh_jobs ~now:0
      ~map_capacity:(T.total_map_slots cluster)
      ~reduce_capacity:(T.total_reduce_slots cluster)
      jobs
  in
  let direct, _ = Cold.Solver.solve inst in
  let r = run (mrcp_driver cluster) jobs in
  (* the eight arrivals share one instant, so the simulator submits them
     all before the manager reacts: one pass sees the full batch with
     nothing started, and the executed schedule is a from-scratch solve of
     the same instance *)
  Alcotest.(check int) "one solve per arrival instant" 1 r.Sim.solves;
  Alcotest.(check int) "simulated lateness equals solver objective"
    direct.Sched.Solution.late_jobs r.Sim.n_late;
  Alcotest.(check bool) "max invocation tracked" true
    (r.Sim.max_invocation_s > 0.
    && r.Sim.max_invocation_s <= r.Sim.total_overhead_s +. 1e-9)

let test_utilization_accounting () =
  Gen.reset_tasks ();
  let cluster = T.uniform_cluster ~m:1 ~map_capacity:1 ~reduce_capacity:1 in
  let jobs =
    [ mk_job ~id:0 ~deadline:60_000 ~maps:[ 10_000 ] ~reduces:[ 5000 ] () ]
  in
  let r = Sim.run ~validate:true ~cluster ~driver:(mrcp_driver cluster) ~jobs () in
  Alcotest.(check int) "map busy" 10_000 r.Sim.map_busy_ms;
  Alcotest.(check int) "reduce busy" 5000 r.Sim.reduce_busy_ms;
  (* makespan 15000: map slot busy 10/15, reduce 5/15 *)
  (match (r.Sim.map_utilization, r.Sim.reduce_utilization) with
  | Some mu, Some ru ->
      Alcotest.(check bool) "map util 2/3" true (Float.abs (mu -. (2. /. 3.)) < 1e-9);
      Alcotest.(check bool) "reduce util 1/3" true
        (Float.abs (ru -. (1. /. 3.)) < 1e-9)
  | _ -> Alcotest.fail "expected utilizations");
  (* without ~cluster the utilizations are not computed *)
  Gen.reset_tasks ();
  let jobs =
    [ mk_job ~id:0 ~deadline:60_000 ~maps:[ 10_000 ] ~reduces:[ 5000 ] () ]
  in
  let r2 = Sim.run ~driver:(mrcp_driver cluster) ~jobs () in
  Alcotest.(check bool) "no cluster, no utilization" true
    (r2.Sim.map_utilization = None)

let test_contention_minedf_vs_mrcp () =
  (* one slot, three tight jobs: MRCP-RM (exact) must not be worse than
     MinEDF-WC *)
  let cluster = T.uniform_cluster ~m:1 ~map_capacity:1 ~reduce_capacity:1 in
  let make_jobs () =
    Gen.reset_tasks ();
    [
      mk_job ~id:0 ~deadline:35_000 ~maps:[ 10_000 ] ~reduces:[] ();
      mk_job ~id:1 ~arrival:1 ~deadline:21_000 ~maps:[ 10_000 ] ~reduces:[] ();
      mk_job ~id:2 ~arrival:2 ~deadline:32_000 ~maps:[ 10_000 ] ~reduces:[] ();
    ]
  in
  let r_mrcp = run (mrcp_driver cluster) (make_jobs ()) in
  let r_min = run (slot_driver Baselines.Slot_scheduler.Min_edf_wc cluster) (make_jobs ()) in
  Alcotest.(check bool) "mrcp no worse" true (r_mrcp.Sim.n_late <= r_min.Sim.n_late)

(* --- synthetic workload end-to-end -------------------------------------- *)

let synth_cluster = T.uniform_cluster ~m:10 ~map_capacity:2 ~reduce_capacity:2

let synth_jobs ?(n = 25) seed =
  Mapreduce.Synthetic.generate
    {
      Mapreduce.Synthetic.default with
      Mapreduce.Synthetic.n_jobs = n;
      map_tasks_max = 10;
      reduce_tasks_max = 5;
      e_max = 20;
      lambda = 0.02;
    }
    ~cluster:synth_cluster ~seed

let test_synthetic_stream_mrcp () =
  let r = run (mrcp_driver synth_cluster) (synth_jobs 11) in
  Alcotest.(check int) "all jobs complete" 25 r.Sim.jobs_total;
  Alcotest.(check bool) "few late" true (r.Sim.n_late <= 3);
  Alcotest.(check bool) "overhead sane" true (r.Sim.total_overhead_s < 30.)

let test_synthetic_stream_all_baselines () =
  List.iter
    (fun policy ->
      let r =
        run (slot_driver policy synth_cluster) (synth_jobs 13)
      in
      Alcotest.(check int)
        (Baselines.Slot_scheduler.policy_to_string policy ^ " completes")
        25 r.Sim.jobs_total)
    Baselines.Slot_scheduler.[ Min_edf_wc; Edf_wc; Fcfs_wc ]

let test_deferral_ablation_consistency () =
  (* §V.E deferral on vs off: same workload must fully execute either way,
     with est still respected (the validator checks) *)
  let jobs seed =
    Mapreduce.Synthetic.generate
      {
        Mapreduce.Synthetic.default with
        Mapreduce.Synthetic.n_jobs = 15;
        map_tasks_max = 6;
        reduce_tasks_max = 3;
        e_max = 10;
        p = 0.8;
        s_max = 200;
        lambda = 0.05;
      }
      ~cluster:synth_cluster ~seed
  in
  let with_deferral =
    run
      (mrcp_driver
         ~config:
           { Mrcp.Manager.default_config with Mrcp.Manager.deferral_window = Some 50_000 }
         synth_cluster)
      (jobs 7)
  in
  let without =
    run
      (mrcp_driver
         ~config:{ Mrcp.Manager.default_config with Mrcp.Manager.deferral_window = None }
         synth_cluster)
      (jobs 7)
  in
  Alcotest.(check int) "deferral: all complete" 15 with_deferral.Sim.jobs_total;
  Alcotest.(check int) "no deferral: all complete" 15 without.Sim.jobs_total

(* qcheck: for random small open systems, every manager completes every job
   under full validation *)
let prop_all_managers_complete =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* seed = int_range 0 10_000 in
      let* lambda_scale = int_range 1 20 in
      return (n, seed, lambda_scale))
  in
  QCheck.Test.make ~count:25 ~name:"random streams complete under validation"
    (QCheck.make gen) (fun (n, seed, lambda_scale) ->
      let jobs =
        Mapreduce.Synthetic.generate
          {
            Mapreduce.Synthetic.default with
            Mapreduce.Synthetic.n_jobs = n;
            map_tasks_max = 6;
            reduce_tasks_max = 4;
            e_max = 15;
            p = 0.3;
            s_max = 100;
            lambda = 0.005 *. float_of_int lambda_scale;
          }
          ~cluster:synth_cluster ~seed
      in
      List.for_all
        (fun (_, driver) ->
          let r = Sim.run ~validate:true ~driver ~jobs () in
          r.Sim.jobs_total = n)
        (all_drivers synth_cluster))

let () =
  Alcotest.run "opensim"
    [
      ( "basics",
        [
          Alcotest.test_case "single job" `Quick test_single_job_all_managers;
          Alcotest.test_case "open stream" `Quick test_open_stream_all_managers;
          Alcotest.test_case "AR est respected" `Quick
            test_ar_jobs_respect_est_all_managers;
          Alcotest.test_case "turnaround from est" `Quick
            test_turnaround_measured_from_est;
          Alcotest.test_case "utilization" `Quick test_utilization_accounting;
          Alcotest.test_case "closed batch = solver" `Quick
            test_closed_batch_matches_solver;
          Alcotest.test_case "mrcp vs minedf contention" `Quick
            test_contention_minedf_vs_mrcp;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "mrcp stream" `Slow test_synthetic_stream_mrcp;
          Alcotest.test_case "baseline streams" `Slow
            test_synthetic_stream_all_baselines;
          Alcotest.test_case "deferral ablation" `Slow
            test_deferral_ablation_consistency;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_all_managers_complete ] );
    ]
