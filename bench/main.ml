(* Bechamel benchmark harness.

   Two groups:
   - "micro": the building blocks (profile ops, event heap, greedy SGS, CP
     propagation, exact branch-and-bound, LNS, matchmaking) — the ablation
     surface for DESIGN.md's design choices;
   - one benchmark per table/figure of the paper ("table4", "fig2" ...
     "fig9"): a scaled-down instance of exactly the workload/manager
     configuration that regenerates that artefact (the full-scale series are
     produced by bin/experiments.exe; here we measure their cost and keep
     them exercised).

   Run with:  dune exec bench/main.exe  *)

open Bechamel
open Toolkit
module T = Mapreduce.Types

(* ------------------------------------------------------------------ *)
(* fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let task_counter = ref 0

let mk_job ~id ~est ~deadline ~maps ~reduces =
  let fresh kind e =
    incr task_counter;
    { T.task_id = !task_counter; job_id = id; kind; exec_time = e; capacity_req = 1 }
  in
  {
    T.id;
    arrival = 0;
    earliest_start = est;
    deadline;
    map_tasks = Array.of_list (List.map (fresh T.Map_task) maps);
    reduce_tasks = Array.of_list (List.map (fresh T.Reduce_task) reduces);
  }

(* a contended 40-job batch instance for greedy/CP measurements *)
let batch_instance =
  let rng = Simrand.Rng.create 1 in
  let jobs =
    List.init 40 (fun i ->
        let maps =
          List.init (1 + Simrand.Rng.int rng 6) (fun _ -> 1 + Simrand.Rng.int rng 50)
        in
        let reduces =
          List.init (Simrand.Rng.int rng 4) (fun _ -> 1 + Simrand.Rng.int rng 50)
        in
        let total = List.fold_left ( + ) 0 maps + List.fold_left ( + ) 0 reduces in
        mk_job ~id:i
          ~est:(Simrand.Rng.int rng 100)
          ~deadline:(total + Simrand.Rng.int rng 150)
          ~maps ~reduces)
  in
  Sched.Instance.of_fresh_jobs ~now:0 ~map_capacity:4 ~reduce_capacity:2 jobs

(* a small instance where exact search must run (greedy is suboptimal) *)
let exact_instance =
  let jobs =
    List.init 6 (fun i ->
        mk_job ~id:i ~est:0 ~deadline:(60 + (5 * i)) ~maps:[ 20; 15 ]
          ~reduces:[ 10 ])
  in
  Sched.Instance.of_fresh_jobs ~now:0 ~map_capacity:2 ~reduce_capacity:1 jobs

let synth_cluster = T.uniform_cluster ~m:50 ~map_capacity:2 ~reduce_capacity:2

let synthetic_jobs ~n ~params seed =
  Mapreduce.Synthetic.generate
    { params with Mapreduce.Synthetic.n_jobs = n }
    ~cluster:synth_cluster ~seed

let fb_cluster = Mapreduce.Facebook.cluster ()

let facebook_jobs ~n ~lambda seed =
  Mapreduce.Facebook.generate
    { Mapreduce.Facebook.default with Mapreduce.Facebook.n_jobs = n; lambda }
    ~cluster:fb_cluster ~seed

let run_mrcp ?(cluster = synth_cluster) jobs () =
  let mgr = Mrcp.Manager.create ~cluster Mrcp.Manager.default_config in
  let driver = Opensim.Driver.of_mrcp mgr in
  (Opensim.Simulator.run ~driver ~jobs ()).Opensim.Simulator.n_late

let run_slot ?(cluster = synth_cluster) policy jobs () =
  let sched = Baselines.Slot_scheduler.create ~cluster ~policy in
  let driver = Opensim.Driver.of_slot_scheduler sched in
  (Opensim.Simulator.run ~driver ~jobs ()).Opensim.Simulator.n_late

(* ------------------------------------------------------------------ *)
(* micro benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

let bench_profile =
  Test.make ~name:"profile: 1k adds + fits" @@ Staged.stage
  @@ fun () ->
  let p = Sched.Profile.create ~capacity:8 in
  for i = 0 to 999 do
    let start = Sched.Profile.earliest_fit p ~from:(i mod 97) ~duration:10 ~amount:1 in
    Sched.Profile.add p ~start ~duration:10 ~amount:1
  done

let bench_heap =
  Test.make ~name:"heap: 10k push/pop" @@ Staged.stage
  @@ fun () ->
  let h = Desim.Heap.create () in
  for i = 0 to 9_999 do
    Desim.Heap.push h ~key:((i * 7919) mod 65536) i
  done;
  let rec drain () = match Desim.Heap.pop h with None -> () | Some _ -> drain () in
  drain ()

let bench_greedy =
  Test.make ~name:"greedy EDF: 40-job batch" @@ Staged.stage
  @@ fun () -> ignore (Sched.Greedy.solve batch_instance)

let bench_model_build =
  Test.make ~name:"cp model build: 40-job batch" @@ Staged.stage
  @@ fun () ->
  ignore
    (Cp.Model.build batch_instance
       ~horizon:(Cp.Model.default_horizon batch_instance))

let bench_propagation =
  Test.make ~name:"cp root propagation: 40-job batch" @@ Staged.stage
  @@ fun () ->
  let m =
    Cp.Model.build batch_instance
      ~horizon:(Cp.Model.default_horizon batch_instance)
  in
  try Cp.Store.propagate m.Cp.Model.store with Cp.Store.Fail _ -> ()

let bench_exact =
  Test.make ~name:"cp exact B&B: 6-job contended batch" @@ Staged.stage
  @@ fun () -> ignore (Cp.Solver.solve exact_instance)

let bench_full_solve =
  Test.make ~name:"cp solve (seed+LB+search): 40-job batch" @@ Staged.stage
  @@ fun () -> ignore (Cp.Solver.solve batch_instance)

let bench_portfolio =
  Test.make ~name:"cp portfolio solve (2 domains): 40-job batch"
  @@ Staged.stage
  @@ fun () -> ignore (Cp.Portfolio.solve ~domains:2 batch_instance)

let bench_matchmaker =
  let solution, _ = Cp.Solver.solve batch_instance in
  let pending =
    Array.to_list batch_instance.Sched.Instance.jobs
    |> List.concat_map (fun (j : Sched.Instance.pending_job) ->
           Array.to_list j.Sched.Instance.pending_maps
           @ Array.to_list j.Sched.Instance.pending_reduces)
  in
  Test.make ~name:"matchmaker: 40-job combined schedule" @@ Staged.stage
  @@ fun () ->
  let mm = Mrcp.Matchmaker.create ~cluster:(T.uniform_cluster ~m:3 ~map_capacity:2 ~reduce_capacity:1) in
  ignore
    (Mrcp.Matchmaker.assign_all mm ~starts:solution.Sched.Solution.starts
       ~pending)

(* workflow extension: greedy + exact solve on a diamond-DAG batch *)
let workflow_instance =
  let tasks ~kind ~job es =
    Array.of_list
      (List.map
         (fun e ->
           incr task_counter;
           {
             T.task_id = !task_counter;
             job_id = job;
             kind;
             exec_time = e;
             capacity_req = 1;
           })
         es)
  in
  let diamond id =
    {
      Workflow.Dag.id;
      earliest_start = 10 * id;
      deadline = 200 + (40 * id);
      stages =
        [|
          { Workflow.Dag.stage_id = 0; pool = T.Map_task; tasks = tasks ~kind:T.Map_task ~job:id [ 20; 15 ] };
          { Workflow.Dag.stage_id = 1; pool = T.Map_task; tasks = tasks ~kind:T.Map_task ~job:id [ 30 ] };
          { Workflow.Dag.stage_id = 2; pool = T.Reduce_task; tasks = tasks ~kind:T.Reduce_task ~job:id [ 25 ] };
          { Workflow.Dag.stage_id = 3; pool = T.Reduce_task; tasks = tasks ~kind:T.Reduce_task ~job:id [ 10; 10 ] };
        |];
      precedences = [ (0, 1); (0, 2); (1, 3); (2, 3) ];
    }
  in
  {
    Workflow.Solve.map_capacity = 3;
    reduce_capacity = 2;
    jobs = Array.init 8 diamond;
  }

let bench_workflow =
  Test.make ~name:"workflow: 8 diamond DAGs, greedy + B&B" @@ Staged.stage
  @@ fun () -> ignore (Workflow.Solve.solve workflow_instance)

(* LP comparator: simplex on a medium LP, and the time-indexed MILP *)
let bench_simplex =
  let n = 30 in
  let rng = Simrand.Rng.create 3 in
  let problem =
    {
      Lp.Simplex.objective =
        Array.init n (fun _ -> Simrand.Rng.float rng 4. -. 2.);
      rows =
        List.init 40 (fun _ ->
            {
              Lp.Simplex.coeffs =
                Array.init n (fun _ -> Simrand.Rng.float rng 2.);
              relation = Lp.Simplex.Le;
              rhs = 5. +. Simrand.Rng.float rng 10.;
            });
    }
  in
  Test.make ~name:"lp: simplex 30 vars x 40 rows" @@ Staged.stage
  @@ fun () -> ignore (Lp.Simplex.solve problem)

let bench_milp =
  let jobs =
    List.init 3 (fun id ->
        mk_job ~id ~est:0 ~deadline:14 ~maps:[ 3; 2 ] ~reduces:[ 2 ])
  in
  let inst =
    Sched.Instance.of_fresh_jobs ~now:0 ~map_capacity:2 ~reduce_capacity:1 jobs
  in
  Test.make ~name:"lp: time-indexed MILP, 3-job batch" @@ Staged.stage
  @@ fun () ->
  let m = Lp.Milp_model.build inst ~quantum:1 ~horizon_slots:20 in
  ignore (Lp.Milp_model.solve m)

let micro_tests =
  Test.make_grouped ~name:"micro"
    [
      bench_profile;
      bench_heap;
      bench_greedy;
      bench_model_build;
      bench_propagation;
      bench_exact;
      bench_full_solve;
      bench_portfolio;
      bench_matchmaker;
      bench_workflow;
      bench_simplex;
      bench_milp;
    ]

(* ------------------------------------------------------------------ *)
(* one benchmark per paper artefact (scaled-down configurations)       *)
(* ------------------------------------------------------------------ *)

let defaults = Expkit.Figures.synthetic_defaults

(* Table 3/4 generators *)
let bench_table3 =
  Test.make ~name:"table3: generate 100 synthetic jobs" @@ Staged.stage
  @@ fun () -> ignore (synthetic_jobs ~n:100 ~params:defaults 5)

let bench_table4 =
  Test.make ~name:"table4: generate 100 facebook jobs" @@ Staged.stage
  @@ fun () -> ignore (facebook_jobs ~n:100 ~lambda:0.0004 11)

(* Fig. 2/3: Facebook comparison, both managers *)
let fb_jobs_small = facebook_jobs ~n:40 ~lambda:0.0004 3

let bench_fig2_mrcp =
  Test.make ~name:"fig2: facebook sim, mrcp-rm (40 jobs)" @@ Staged.stage
  @@ fun () -> ignore (run_mrcp ~cluster:fb_cluster fb_jobs_small ())

let bench_fig2_minedf =
  Test.make ~name:"fig2-3: facebook sim, minedf-wc (40 jobs)" @@ Staged.stage
  @@ fun () ->
  ignore
    (run_slot ~cluster:fb_cluster Baselines.Slot_scheduler.Min_edf_wc
       fb_jobs_small ())

(* Figs. 4-9: factor-at-a-time synthetic sims at the extreme of each factor *)
let sim_bench ~name ~params ?(m = 50) () =
  let cluster = T.uniform_cluster ~m ~map_capacity:2 ~reduce_capacity:2 in
  let jobs =
    Mapreduce.Synthetic.generate
      { params with Mapreduce.Synthetic.n_jobs = 40 }
      ~cluster ~seed:9
  in
  Test.make ~name @@ Staged.stage
  @@ fun () -> ignore (run_mrcp ~cluster jobs ())

let bench_fig4 =
  sim_bench ~name:"fig4: sim at e_max=100"
    ~params:{ defaults with Mapreduce.Synthetic.e_max = 100 } ()

let bench_fig5 =
  sim_bench ~name:"fig5: sim at s_max=250000"
    ~params:{ defaults with Mapreduce.Synthetic.s_max = 250_000 } ()

let bench_fig6 =
  sim_bench ~name:"fig6: sim at p=0.9"
    ~params:{ defaults with Mapreduce.Synthetic.p = 0.9 } ()

let bench_fig7 =
  sim_bench ~name:"fig7: sim at d_M=2"
    ~params:{ defaults with Mapreduce.Synthetic.d_m = 2. } ()

let bench_fig8 =
  sim_bench ~name:"fig8: sim at lambda=0.02"
    ~params:{ defaults with Mapreduce.Synthetic.lambda = 0.02 } ()

let bench_fig9 =
  sim_bench ~name:"fig9: sim at m=25" ~m:25 ~params:defaults ()

let figure_tests =
  Test.make_grouped ~name:"figures"
    [
      bench_table3;
      bench_table4;
      bench_fig2_mrcp;
      bench_fig2_minedf;
      bench_fig4;
      bench_fig5;
      bench_fig6;
      bench_fig7;
      bench_fig8;
      bench_fig9;
    ]

(* ------------------------------------------------------------------ *)
(* JSON comparison modes                                               *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Every comparison mode prints its one-line JSON and, with [--out FILE],
   also writes it to FILE with a trailing newline. *)
let emit ~out json =
  print_endline json;
  match out with
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "wrote %s\n" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* propagation-kernel comparison mode (--prop-compare): the same       *)
(* branch-and-bound search run once per kernel (naive, timetable,      *)
(* edge-finding, both) on three fixtures — a Fig. 2 Facebook batch on  *)
(* the 64x(1,1) cluster, the contended 40-job batch, and a unary       *)
(* cap-1 batch that engages the disjunctive edge finder — emitted as   *)
(* JSON so BENCH_prop.json snapshots can track kernel throughput       *)
(* across PRs                                                          *)
(* ------------------------------------------------------------------ *)

(* Fig. 2 workload as a single batch: Facebook-sampled jobs on the
   64x(1,1) cluster, i.e. combined pool capacities 64/64.  8 jobs is already
   ~600 tasks; the search is node-limited rather than run to completion. *)
let fb_batch_instance =
  Sched.Instance.of_fresh_jobs ~now:0 ~map_capacity:64 ~reduce_capacity:64
    (facebook_jobs ~n:8 ~lambda:0.0004 3)

(* unary pools: every pool has capacity 1, so the edge finder engages *)
let unary_instance =
  let rng = Simrand.Rng.create 11 in
  let jobs =
    List.init 8 (fun i ->
        let maps =
          List.init (1 + Simrand.Rng.int rng 3) (fun _ -> 1 + Simrand.Rng.int rng 20)
        in
        let reduces =
          List.init (Simrand.Rng.int rng 2) (fun _ -> 1 + Simrand.Rng.int rng 20)
        in
        let total = List.fold_left ( + ) 0 maps + List.fold_left ( + ) 0 reduces in
        mk_job ~id:i
          ~est:(Simrand.Rng.int rng 20)
          ~deadline:((total / 2) + Simrand.Rng.int rng 60)
          ~maps ~reduces)
  in
  Sched.Instance.of_fresh_jobs ~now:0 ~map_capacity:1 ~reduce_capacity:1 jobs

let prop_compare ~fail_limit ~out () =
  let run_kernel ~limits inst kernel =
    let model =
      Cp.Model.build ~kernel inst ~horizon:(Cp.Model.default_horizon inst)
    in
    let greedy = Sched.Greedy.solve inst in
    model.Cp.Model.bound := greedy.Sched.Solution.late_jobs + 1;
    let t0 = Unix.gettimeofday () in
    let o = Cp.Search.run model limits in
    let dt = Unix.gettimeofday () -. t0 in
    let late =
      match o.Cp.Search.best with
      | Some s -> s.Sched.Solution.late_jobs
      | None -> greedy.Sched.Solution.late_jobs
    in
    let store = model.Cp.Model.store in
    ( kernel,
      o.Cp.Search.nodes,
      o.Cp.Search.failures,
      late,
      o.Cp.Search.proved_optimal,
      Cp.Store.stats_propagations store,
      Cp.Store.stats_wakeups_skipped store,
      Cp.Store.stats_scratch_reuse store,
      Cp.Store.stats_edge_finder_prunes store,
      dt )
  in
  let per_sec count t = if t > 0. then float_of_int count /. t else 0. in
  let case name inst ~limits =
    let runs = List.map (run_kernel ~limits inst) Cp.Propagators.all_kernels in
    let naive_nps =
      List.fold_left
        (fun acc (k, nodes, _, _, _, _, _, _, _, dt) ->
          if k = Cp.Propagators.Naive then per_sec nodes dt else acc)
        0. runs
    in
    let kernels =
      runs
      |> List.map
           (fun (k, nodes, failures, late, proved, props, skipped, reuse,
                 ef_prunes, dt) ->
             let nps = per_sec nodes dt in
             Printf.sprintf
               {|{"kernel":"%s","late":%d,"nodes":%d,"failures":%d,"proved":%b,"propagations":%d,"wakeups_skipped":%d,"scratch_reuse":%d,"edge_finder_prunes":%d,"elapsed_s":%.6f,"nodes_per_sec":%.1f,"props_per_sec":%.1f,"speedup_vs_naive":%.3f}|}
               (json_escape (Cp.Propagators.kernel_to_string k))
               late nodes failures proved props skipped reuse ef_prunes dt nps
               (per_sec props dt)
               (if naive_nps > 0. then nps /. naive_nps else 0.))
      |> String.concat ","
    in
    Printf.sprintf {|{"case":"%s","kernels":[%s]}|} name kernels
  in
  let cases =
    [
      (* the fb batch never runs dry within any reasonable fail budget, so
         it is node-limited instead: same node count per kernel, compare
         wall time *)
      case "fig2-fb8" fb_batch_instance
        ~limits:
          { Cp.Search.no_limits with Cp.Search.node_limit = 20_000 };
      case "batch40" batch_instance
        ~limits:{ Cp.Search.no_limits with Cp.Search.fail_limit };
      case "unary8" unary_instance
        ~limits:{ Cp.Search.no_limits with Cp.Search.fail_limit };
    ]
  in
  let json =
    Printf.sprintf
      {|{"bench":"prop-compare","fail_limit":%d,"cases":[%s]}|} fail_limit
      (String.concat "," cases)
  in
  emit ~out json

(* ------------------------------------------------------------------ *)
(* session comparison mode (--session-compare): the acceptance         *)
(* workload (synthetic, lambda = 0.05, 40 jobs, seed 42) simulated     *)
(* twice — per-invocation model rebuild (--no-session) vs the          *)
(* persistent Cp.Session store — emitted as JSON so BENCH_session.json *)
(* snapshots can track the per-invocation overhead O saving across PRs *)
(* ------------------------------------------------------------------ *)

let session_compare ~jobs_n ~out () =
  let lambda = 0.05 and seed = 42 in
  (* Contended variant of the Fig. 2 workload: a small 4-host cluster with
     modest jobs (<= 12 maps, <= 4 reduces) at lambda = 0.05 keeps a
     dozen-plus jobs in flight with deadlines tight enough (d_m = 1.5) that
     most invocations need an exact search, and the raised
     [exact_task_limit] routes them there (the LNS regime never builds a
     model, so it cannot show a session effect either way).  This is the
     regime where the session pays off twice: the model rebuild is amortized
     into a root-level diff, and the carried optimality certificate lets
     most searches stop at their first improving solution instead of
     exhausting the tree to re-prove what the previous invocation already
     established. *)
  let cluster = T.uniform_cluster ~m:4 ~map_capacity:2 ~reduce_capacity:2 in
  let params =
    {
      Expkit.Figures.synthetic_defaults with
      Mapreduce.Synthetic.n_jobs = jobs_n;
      lambda;
      map_tasks_max = 12;
      reduce_tasks_max = 4;
      e_max = 25;
      s_max = 100;
      d_m = 1.5;
    }
  in
  let solver =
    { Cp.Solver.default_options with exact_task_limit = 400; fail_limit = 2_000 }
  in
  let jobs = Mapreduce.Synthetic.generate params ~cluster ~seed in
  let run ~session =
    (* the journal is written outside the timed invocation window, so it
       does not inflate the O figures; its invoke events give the exact
       per-invocation decision-latency quantiles *)
    let journal = Obs.Journal.create () in
    let mgr =
      Mrcp.Manager.create ~cluster
        { Mrcp.Manager.default_config with
          Mrcp.Manager.solver;
          session;
          journal = Some journal }
    in
    let driver = Opensim.Driver.of_mrcp mgr in
    let r = Opensim.Simulator.run ~journal ~driver ~jobs () in
    let solves = Mrcp.Manager.solve_count mgr in
    let overhead = Mrcp.Manager.overhead_seconds mgr in
    let o_inv = if solves > 0 then overhead /. float_of_int solves else 0. in
    let o_p50, o_p99 =
      match Report.Audit.of_string (Obs.Journal.to_string journal) with
      | Ok rep ->
          ( Report.Audit.latency_quantile rep 0.5,
            Report.Audit.latency_quantile rep 0.99 )
      | Error _ -> (0., 0.)
    in
    ( Printf.sprintf
        {|{"mode":"%s","n_late":%d,"jobs":%d,"solves":%d,"cache_hits":%d,"overhead_s":%.6f,"o_per_invocation_s":%.6f,"o_p50_s":%.6f,"o_p99_s":%.6f,"o_max_invocation_s":%.6f,"o_per_job_s":%.6f}|}
        (if session then "session" else "cold")
        r.Opensim.Simulator.n_late r.Opensim.Simulator.jobs_total solves
        (Mrcp.Manager.cache_hit_count mgr)
        overhead o_inv o_p50 o_p99
        (Mrcp.Manager.max_invocation_seconds mgr)
        r.Opensim.Simulator.overhead_per_job_s,
      o_inv )
  in
  let cold_json, cold_o = run ~session:false in
  let sess_json, sess_o = run ~session:true in
  let reduction_pct =
    if cold_o > 0. then 100. *. (cold_o -. sess_o) /. cold_o else 0.
  in
  let json =
    Printf.sprintf
      {|{"bench":"session-compare","workload":"synthetic","lambda":%g,"seed":%d,"jobs":%d,"cold":%s,"session":%s,"o_reduction_pct":%.2f}|}
      lambda seed jobs_n cold_json sess_json reduction_pct
  in
  emit ~out json

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let benchmark tests =
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None
      ~stabilize:false ()
  in
  Benchmark.all cfg Instance.[ monotonic_clock ] tests

let analyze results =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock results

let print_group name results =
  Printf.printf "\n== %s ==\n" name;
  let rows = ref [] in
  Hashtbl.iter
    (fun test_name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | _ -> nan
      in
      let r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan in
      rows := (test_name, estimate, r2) :: !rows)
    results;
  List.iter
    (fun (test_name, estimate, r2) ->
      let pretty =
        if estimate >= 1e9 then Printf.sprintf "%8.3f s " (estimate /. 1e9)
        else if estimate >= 1e6 then Printf.sprintf "%8.3f ms" (estimate /. 1e6)
        else if estimate >= 1e3 then Printf.sprintf "%8.3f us" (estimate /. 1e3)
        else Printf.sprintf "%8.0f ns" estimate
      in
      Printf.printf "  %-45s %s  (r2=%.3f)\n" test_name pretty r2)
    (List.sort compare !rows)

(* bench/main.exe MODE [N] [--out FILE]: N is the mode's size argument
   (fail limit or job count), taken when the token after MODE is a
   positive integer; otherwise the mode's default applies.  Without a mode
   the bechamel micro- and figure benches run. *)
let modes =
  [
    ( "--prop-compare",
      (fun () -> 20_000),
      fun n ~out -> prop_compare ~fail_limit:n ~out () );
    ( "--session-compare",
      (fun () -> 40),
      fun n ~out -> session_compare ~jobs_n:n ~out () );
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec after flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> after flag rest
    | [] -> None
  in
  match List.find_opt (fun (flag, _, _) -> List.mem flag args) modes with
  | Some (flag, default, run) ->
      let n =
        match Option.bind (after flag args) int_of_string_opt with
        | Some n when n > 0 -> n
        | _ -> default ()
      in
      run n ~out:(after "--out" args)
  | None ->
      Printf.printf
        "MRCP-RM benchmark harness (bechamel); full-scale figure regeneration \
         lives in bin/experiments.exe\n";
      print_group "micro" (analyze (benchmark micro_tests));
      print_group "figures (scaled-down)" (analyze (benchmark figure_tests));
      Printf.printf "\ndone.\n"
