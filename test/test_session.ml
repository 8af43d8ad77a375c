(* Differential tests for the persistent solver session (Cp.Session).

   The core property: driven through the same arrival / complete / freeze
   sequence, the persistent session and a fresh cold solve must prove the
   same optimum on every instance (the session's store is a live superset of
   the cold model — wider horizon, retracted tasks fixed in place — so under
   proof-complete budgets both searches are complete over the same feasible
   set).  The mini-driver below replays the manager's Table-2 classification
   without the manager, so the session sees realistic diffs: est bumps,
   frozen (started-but-running) tasks, retracted completions, departed jobs,
   and mid-stream arrivals. *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution

(* Proof-complete options: on Gen.tiny-scale instances every solve runs the
   exact B&B to exhaustion, so session and cold must both prove and land on
   the same objective. *)
let proof_options =
  {
    Cp.Solver.default_options with
    Cp.Solver.exact_task_limit = 200;
    fail_limit = 1_000_000;
    time_limit = 60.;
  }

(* --- mini-driver: Table-2 classification against an installed plan ------ *)

(* [classify ~now dispatch j] mirrors Mrcp.Manager's per-invocation task
   classification: a dispatched task whose window ended is completed, one
   that started is frozen at its dispatch, everything else (including
   dispatches still in the future — the next solve may move them) is
   pending.  Returns [None] once every task of the job has completed. *)
let classify ~now dispatch (j : T.job) =
  let part tasks =
    let completed = ref [] and fixed = ref [] and pending = ref [] in
    Array.iter
      (fun (t : T.task) ->
        match Hashtbl.find_opt dispatch t.T.task_id with
        | Some s when s + t.T.exec_time <= now ->
            completed := (t, s) :: !completed
        | Some s when s <= now -> fixed := (t, s) :: !fixed
        | Some _ | None ->
            Hashtbl.remove dispatch t.T.task_id;
            pending := t :: !pending)
      tasks;
    (List.rev !completed, List.rev !fixed, List.rev !pending)
  in
  let cm, fm, pm = part j.T.map_tasks in
  let cr, fr, pr = part j.T.reduce_tasks in
  if pm = [] && pr = [] && fm = [] && fr = [] then None
  else
    let finish (t, s) = s + t.T.exec_time in
    let max_finish l = List.fold_left (fun acc p -> max acc (finish p)) 0 l in
    let to_fixed (t, s) = { Instance.task = t; start = s } in
    Some
      {
        Instance.job = j;
        est = max j.T.earliest_start now;
        pending_maps = Array.of_list pm;
        pending_reduces = Array.of_list pr;
        fixed_maps = Array.of_list (List.map to_fixed fm);
        fixed_reduces = Array.of_list (List.map to_fixed fr);
        frozen_lfmt = max_finish (cm @ fm);
        frozen_completion = max_finish (cm @ fm @ cr @ fr);
      }

let instance_at ~now ~map_cap ~reduce_cap dispatch jobs =
  let pjobs =
    jobs
    |> List.filter (fun j -> j.T.arrival <= now)
    |> List.filter_map (classify ~now dispatch)
  in
  Instance.make ~now ~map_capacity:map_cap ~reduce_capacity:reduce_cap
    (Array.of_list pjobs)

let install dispatch (inst : Instance.t) (sol : Solution.t) =
  Array.iteri
    (fun k (t : T.task) ->
      Hashtbl.replace dispatch t.T.task_id sol.Solution.starts.(k))
    (Instance.pending_tasks inst)

(* Event times: every distinct arrival, plus two drain points so tasks
   complete (exercising retraction) and jobs depart entirely. *)
let event_times jobs =
  let arrivals = List.map (fun j -> j.T.arrival) jobs in
  let last = List.fold_left max 0 arrivals in
  List.sort_uniq compare (arrivals @ [ last + 37; last + 5_000 ])

(* Run the whole stream through one persistent session, cold-solving every
   instance alongside it.  [check inst session_result cold_result] runs per
   event; the session's plan drives the stream. *)
let drive ~options ~map_cap ~reduce_cap jobs check =
  let session = Cp.Session.create () in
  let dispatch = Hashtbl.create 64 in
  List.iter
    (fun now ->
      let inst = instance_at ~now ~map_cap ~reduce_cap dispatch jobs in
      let ssol, sst = Cp.Session.solve session ~options inst in
      let csol, cst = Cp.Solver.solve ~options inst in
      check inst (ssol, sst) (csol, cst);
      install dispatch inst ssol)
    (event_times jobs);
  session

(* --- random job streams ------------------------------------------------- *)

let gen_stream =
  let open QCheck.Gen in
  let* n = int_range 2 5 in
  let* gaps = list_repeat n (int_range 0 45) in
  let* specs =
    flatten_l
      (List.init n (fun id ->
           let* n_maps = int_range 1 3 in
           let* n_reduces = int_range 0 2 in
           let* maps = list_repeat n_maps (int_range 1 20) in
           let* reduces = list_repeat n_reduces (int_range 1 20) in
           let* est_off = int_range 0 30 in
           let* slack = int_range 0 60 in
           return (id, maps, reduces, est_off, slack)))
  in
  let* map_cap = int_range 1 3 in
  let* reduce_cap = int_range 1 3 in
  Gen.reset_tasks ();
  let _, jobs =
    List.fold_left2
      (fun (t, acc) gap (id, maps, reduces, est_off, slack) ->
        let arrival = t + gap in
        let est = arrival + est_off in
        let total =
          List.fold_left ( + ) 0 maps + List.fold_left ( + ) 0 reduces
        in
        let j =
          Gen.mk_job ~id ~arrival ~est
            ~deadline:(est + (total / 2) + slack)
            ~maps ~reduces ()
        in
        (arrival, j :: acc))
      (0, []) gaps specs
  in
  return (List.rev jobs, map_cap, reduce_cap)

let print_stream (jobs, map_cap, reduce_cap) =
  Format.asprintf "caps=(%d,%d)@ %a" map_cap reduce_cap
    (Format.pp_print_list T.pp_job)
    jobs

let arb_stream = QCheck.make ~print:print_stream gen_stream

(* --- properties --------------------------------------------------------- *)

(* (a) Per invocation, session and cold solve prove the same Σ N_j, and the
   session's solution passes the Table-1 oracle for the instance. *)
let prop_session_matches_cold =
  QCheck.Test.make ~count:35 ~name:"session = cold optimum (no restarts)"
    arb_stream
    (fun (jobs, map_cap, reduce_cap) ->
      let options = proof_options in
      let _session =
        drive ~options ~map_cap ~reduce_cap jobs
          (fun inst (ssol, sst) (csol, cst) ->
            if not sst.Cp.Solver.proved_optimal then
              QCheck.Test.fail_reportf "session did not prove: %a" Instance.pp
                inst;
            if not cst.Cp.Solver.proved_optimal then
              QCheck.Test.fail_reportf "cold did not prove: %a" Instance.pp
                inst;
            if ssol.Solution.late_jobs <> csol.Solution.late_jobs then
              QCheck.Test.fail_reportf
                "optima differ: session %d vs cold %d on %a"
                ssol.Solution.late_jobs csol.Solution.late_jobs Instance.pp
                inst;
            match Solution.feasibility_errors inst ssol with
            | [] -> ()
            | errs ->
                QCheck.Test.fail_reportf "session solution infeasible: %s"
                  (String.concat "; " errs))
      in
      true)

(* (b) Session bookkeeping under lazy sync: the store only sees the jobs of
   invocations that actually searched (seed-optimal invocations never
   touch it), so the exact stream totals are upper bounds — but the
   counters must stay consistent with them, and nothing on these tiny
   streams may force a rebuild. *)
let prop_session_counters =
  QCheck.Test.make ~count:40 ~name:"session counters account for the stream"
    arb_stream
    (fun (jobs, map_cap, reduce_cap) ->
      let options = proof_options in
      let session =
        drive ~options ~map_cap ~reduce_cap jobs (fun _ _ _ -> ())
      in
      let n_tasks = List.fold_left (fun acc j -> acc + T.task_count j) 0 jobs in
      let appended = Cp.Session.stats_appended_jobs session in
      let retracted = Cp.Session.stats_retracted session in
      let rebuilds = Cp.Session.stats_rebuilds session in
      if rebuilds <> 0 then
        QCheck.Test.fail_reportf "%d rebuilds on a tiny stream" rebuilds;
      if appended > List.length jobs then
        QCheck.Test.fail_reportf "appended %d jobs, stream has only %d"
          appended (List.length jobs);
      if retracted > n_tasks then
        QCheck.Test.fail_reportf "retracted %d tasks, stream has only %d"
          retracted n_tasks;
      true)

(* --- deterministic cases ------------------------------------------------ *)

(* Contention streams exercise the store: two unit-capacity jobs whose
   deadlines only one can meet force a real search (the contention lateness
   is invisible to the solo lower bound), so the session must sync.  A
   second contending pair arriving after the first drained makes that later
   sync retire the departed pair's tasks.  Lazy sync means only searched
   invocations touch the store: the drain events at the end are
   seed-optimal and never sync, so the second pair's tasks are still live
   when the stream ends — appended counts all four jobs, retracted only the
   first pair's tasks. *)
let contention_stream () =
  Gen.reset_tasks ();
  [
    Gen.mk_job ~id:0 ~deadline:10 ~maps:[ 10 ] ~reduces:[] ();
    Gen.mk_job ~id:1 ~deadline:12 ~maps:[ 10 ] ~reduces:[] ();
    Gen.mk_job ~id:2 ~arrival:21 ~est:21 ~deadline:31 ~maps:[ 10 ]
      ~reduces:[] ();
    Gen.mk_job ~id:3 ~arrival:21 ~est:21 ~deadline:33 ~maps:[ 10 ]
      ~reduces:[] ();
  ]

let stop_reason =
  Alcotest.testable
    (Fmt.of_to_string Obs.Solve_stats.stop_reason_to_string)
    ( = )

(* The session trajectory of [contention_stream], per invocation time:
   (nodes, failures, stop_reason, lower_bound, late). *)
let contention_trajectory =
  [
    (0, (0, 1, Obs.Solve_stats.Proved, 0, 1));
    (21, (0, 1, Obs.Solve_stats.Proved, 0, 1));
    (58, (0, 0, Obs.Solve_stats.Proved, 0, 0));
    (5021, (0, 0, Obs.Solve_stats.Proved, 0, 0));
  ]

let test_counters_deterministic () =
  let jobs = contention_stream () in
  let options = proof_options in
  let seen = ref [] in
  let session =
    drive ~options ~map_cap:1 ~reduce_cap:1 jobs
      (fun inst (ssol, sst) (csol, cst) ->
        let now = inst.Instance.now in
        seen := now :: !seen;
        let nodes, failures, stop, lb, late =
          match List.assoc_opt now contention_trajectory with
          | Some pin -> pin
          | None -> Alcotest.failf "unexpected invocation at %d" now
        in
        let at what = Printf.sprintf "t=%d %s" now what in
        Alcotest.(check int) (at "nodes") nodes sst.Cp.Solver.nodes;
        Alcotest.(check int) (at "failures") failures sst.Cp.Solver.failures;
        Alcotest.check stop_reason (at "stop") stop sst.Cp.Solver.stop_reason;
        Alcotest.(check int) (at "lower bound") lb sst.Cp.Solver.lower_bound;
        Alcotest.(check int) (at "late") late ssol.Solution.late_jobs;
        Alcotest.(check bool) "session proved" true sst.Cp.Solver.proved_optimal;
        Alcotest.(check bool) "cold proved" true cst.Cp.Solver.proved_optimal;
        Alcotest.(check int) "same optimum" csol.Solution.late_jobs
          ssol.Solution.late_jobs;
        Alcotest.(check (list string))
          "feasible" []
          (Solution.feasibility_errors inst ssol))
  in
  Alcotest.(check (list int))
    "invocation times" (List.map fst contention_trajectory) (List.rev !seen);
  Alcotest.(check int) "appended" 4 (Cp.Session.stats_appended_jobs session);
  Alcotest.(check int) "retracted" 2 (Cp.Session.stats_retracted session);
  Alcotest.(check int) "rebuilds" 0 (Cp.Session.stats_rebuilds session)

(* The carried optimality certificate: after the t = 0 search proves the
   contending pair costs one late job, a t = 1 re-invocation (triggered by a
   harmless third arrival) still seeds at one late — but the solo lower
   bound is 0, because the lateness comes from contention, not from any job
   alone.  A cold solve must search again to re-prove it; the session's
   certificate carries the t = 0 proof across, so the invocation finishes
   seed-optimal with no search at all. *)
let test_cert_proof () =
  Gen.reset_tasks ();
  let jobs =
    [
      Gen.mk_job ~id:0 ~deadline:10 ~maps:[ 10 ] ~reduces:[] ();
      Gen.mk_job ~id:1 ~deadline:12 ~maps:[ 10 ] ~reduces:[] ();
      Gen.mk_job ~id:2 ~arrival:1 ~est:1 ~deadline:100 ~maps:[ 2 ]
        ~reduces:[] ();
    ]
  in
  let options = proof_options in
  let session =
    drive ~options ~map_cap:1 ~reduce_cap:1 jobs
      (fun inst (ssol, sst) (csol, cst) ->
        Alcotest.(check bool) "session proved" true sst.Cp.Solver.proved_optimal;
        Alcotest.(check bool) "cold proved" true cst.Cp.Solver.proved_optimal;
        Alcotest.(check int) "same optimum" csol.Solution.late_jobs
          ssol.Solution.late_jobs;
        (* the sync is timed apart from the search, and only when the
           store is searched *)
        if inst.Instance.now = 1 then begin
          Alcotest.(check int) "no search at t=1" 0 sst.Cp.Solver.nodes;
          Alcotest.(check (float 0.)) "no sync without a search" 0.
            sst.Cp.Solver.sync_s
        end
        else if sst.Cp.Solver.nodes > 0 then
          Alcotest.(check bool) "sync timed" true (sst.Cp.Solver.sync_s > 0.))
  in
  Alcotest.(check int) "one certificate proof" 1
    (Cp.Session.stats_cert_proofs session)

(* The manager's passes carry the certificate too.  The stream of
   [test_cert_proof] through a manager: the t = 1 pass seeds from the
   surviving plan at one late job, above the classic bound (0), and only the
   certificate carried from the t = 0 proof settles it. *)
let test_manager_cert () =
  Gen.reset_tasks ();
  let jobs =
    [
      Gen.mk_job ~id:0 ~deadline:10 ~maps:[ 10 ] ~reduces:[] ();
      Gen.mk_job ~id:1 ~deadline:12 ~maps:[ 10 ] ~reduces:[] ();
      Gen.mk_job ~id:2 ~arrival:1 ~est:1 ~deadline:100 ~maps:[ 2 ]
        ~reduces:[] ();
    ]
  in
  let mgr =
    Mrcp.Manager.create
      ~cluster:(T.uniform_cluster ~m:1 ~map_capacity:1 ~reduce_capacity:1)
      {
        Mrcp.Manager.default_config with
        Mrcp.Manager.solver = proof_options;
        validate = true;
      }
  in
  let pass now =
    List.iter
      (fun (j : T.job) ->
        if j.T.arrival = now then Mrcp.Manager.submit mgr ~now j)
      jobs;
    Mrcp.Manager.invoke mgr ~now;
    match Mrcp.Manager.last_solver_stats mgr with
    | Some s -> s
    | None -> Alcotest.fail "manager did not solve"
  in
  let st0 = pass 0 in
  Alcotest.(check bool) "t=0 proved" true st0.Cp.Solver.proved_optimal;
  Alcotest.(check int) "t=0 classic bound" 0 st0.Cp.Solver.lower_bound;
  let st1 = pass 1 in
  Alcotest.(check int) "t=1 seed" 1 st1.Cp.Solver.seed_late;
  Alcotest.(check int) "t=1 carried bound" 1 st1.Cp.Solver.lower_bound;
  Alcotest.check stop_reason "t=1 proved by the certificate"
    Obs.Solve_stats.Hit_carried_bound st1.Cp.Solver.stop_reason

(* The carried bound reaches a pass that is not searched.  At t = 0 the
   contending pair costs one late job, which only search can prove (the
   classic bound is 0).  At t = 1 a second contending pair arrives and the
   pass is past the task limit ([exact_task_limit = 0]).  Its seed (three
   late: EDF runs the doomed-by-contention job 1 ahead of the second pair)
   is above the carried bound (one: the certificate pair, whose plan ran
   job 0 first, plus no solo dooms), so the pass returns its seed with
   [Node_limit] and reports the carried bound as its lower bound. *)
let test_cert_bound_unsearched () =
  Gen.reset_tasks ();
  let pair =
    [
      Gen.mk_job ~id:0 ~deadline:10 ~maps:[ 10 ] ~reduces:[] ();
      Gen.mk_job ~id:1 ~deadline:12 ~maps:[ 10 ] ~reduces:[] ();
    ]
  in
  let second_pair =
    [
      Gen.mk_job ~id:2 ~arrival:1 ~est:1 ~deadline:25 ~maps:[ 10 ]
        ~reduces:[] ();
      Gen.mk_job ~id:3 ~arrival:1 ~est:1 ~deadline:27 ~maps:[ 10 ]
        ~reduces:[] ();
    ]
  in
  let session = Cp.Session.create () in
  let dispatch = Hashtbl.create 16 in
  let solve_at ~options now =
    let inst =
      instance_at ~now ~map_cap:1 ~reduce_cap:1 dispatch (pair @ second_pair)
    in
    let sol, st = Cp.Session.solve session ~options inst in
    install dispatch inst sol;
    (inst, sol, st)
  in
  let _, sol0, st0 = solve_at ~options:proof_options 0 in
  Alcotest.(check int) "t=0 optimum" 1 sol0.Solution.late_jobs;
  Alcotest.(check int) "t=0 classic bound" 0 st0.Cp.Solver.lower_bound;
  Alcotest.check stop_reason "t=0 proved by search" Obs.Solve_stats.Proved
    st0.Cp.Solver.stop_reason;
  let inst1, sol1, st1 =
    solve_at ~options:{ proof_options with Cp.Solver.exact_task_limit = 0 } 1
  in
  Alcotest.(check int) "t=1 classic bound" 0
    (Cp.Solver.late_lower_bound (Cp.Solver.prepare inst1));
  Alcotest.(check int) "t=1 seed" 3 st1.Cp.Solver.seed_late;
  Alcotest.(check int) "t=1 seed returned" 3 sol1.Solution.late_jobs;
  Alcotest.(check int) "t=1 carried bound" 1 st1.Cp.Solver.lower_bound;
  Alcotest.check stop_reason "t=1 not searched" Obs.Solve_stats.Node_limit
    st1.Cp.Solver.stop_reason;
  Alcotest.(check int) "t=1 no nodes" 0 st1.Cp.Solver.nodes;
  Alcotest.(check (list string))
    "t=1 feasible" []
    (Solution.feasibility_errors inst1 sol1)

(* A pass the wall clock stops drops the session's store and keeps its
   certificate.  At t = 0 the contending pair of [test_cert_bound_unsearched]
   is proved at one late job.  At t = 1 eight more jobs of one map each
   contend for the single slot: the seed misses the carried bound, and a
   fresh session needs well over 64 nodes to prove the pass.  With no time
   at all the search stops at its first clock check, and the store is gone
   after that pass.  At t = 2 the proved pass rebuilds it, still carries the
   certificate's bound, which a fresh session on the same instance does not
   have, and returns the fresh session's plan. *)
let test_wall_capped_pass_drops_store () =
  Gen.reset_tasks ();
  let jobs =
    [
      Gen.mk_job ~id:0 ~deadline:10 ~maps:[ 10 ] ~reduces:[] ();
      Gen.mk_job ~id:1 ~deadline:12 ~maps:[ 10 ] ~reduces:[] ();
    ]
    @ List.init 8 (fun i ->
          Gen.mk_job ~id:(i + 2) ~arrival:1 ~est:1
            ~deadline:(29 + (2 * i))
            ~maps:[ 10 ] ~reduces:[] ())
  in
  let session = Cp.Session.create () in
  let dispatch = Hashtbl.create 16 in
  let inst_at now = instance_at ~now ~map_cap:1 ~reduce_cap:1 dispatch jobs in
  let fresh inst =
    Cp.Session.solve (Cp.Session.create ()) ~options:proof_options inst
  in
  let solve_at ~options now =
    let inst = inst_at now in
    let sol, st = Cp.Session.solve session ~options inst in
    install dispatch inst sol;
    (inst, sol, st)
  in
  let _, _, st0 = solve_at ~options:proof_options 0 in
  Alcotest.check stop_reason "t=0 proved by search" Obs.Solve_stats.Proved
    st0.Cp.Solver.stop_reason;
  let _, fst1 = fresh (inst_at 1) in
  Alcotest.(check bool) "t=1 needs more than 64 nodes" true
    (fst1.Cp.Solver.nodes > 64);
  let _, _, st1 = solve_at ~options:{ proof_options with time_limit = 0. } 1 in
  Alcotest.(check bool) "t=1 seed misses the bound" true
    (st1.Cp.Solver.seed_late > st1.Cp.Solver.lower_bound);
  Alcotest.check stop_reason "t=1 wall-capped" Obs.Solve_stats.Wall_limit
    st1.Cp.Solver.stop_reason;
  let fp = Cp.Session.stats_footprint session in
  Alcotest.(check (list int))
    "t=1 store dropped" [ 0; 0; 0 ]
    Cp.Session.[ fp.root_trail; fp.job_slots; fp.task_slots ];
  let fsol2, fst2 = fresh (inst_at 2) in
  let inst2, sol2, st2 = solve_at ~options:proof_options 2 in
  Alcotest.(check bool) "t=2 proved" true st2.Cp.Solver.proved_optimal;
  Alcotest.(check int) "t=2 certificate kept" 1 st2.Cp.Solver.lower_bound;
  Alcotest.(check int) "t=2 fresh bound" 0 fst2.Cp.Solver.lower_bound;
  Alcotest.(check (list string))
    "t=2 feasible" []
    (Solution.feasibility_errors inst2 sol2);
  Alcotest.(check (array int))
    "t=2 fresh session's plan" fsol2.Solution.starts sol2.Solution.starts

(* An empty invocation (every job already departed) must come back optimal
   with zero late jobs and leave the session healthy for a later arrival. *)
let test_empty_invocation () =
  Gen.reset_tasks ();
  let j0 = Gen.mk_job ~id:0 ~deadline:20 ~maps:[ 3 ] ~reduces:[] () in
  let j1 =
    Gen.mk_job ~id:1 ~arrival:100 ~est:100 ~deadline:140 ~maps:[ 4 ]
      ~reduces:[ 2 ] ()
  in
  let options = proof_options in
  let session = Cp.Session.create () in
  let dispatch = Hashtbl.create 16 in
  let solve_at now =
    let inst =
      instance_at ~now ~map_cap:2 ~reduce_cap:2 dispatch [ j0; j1 ]
    in
    let sol, st = Cp.Session.solve session ~options inst in
    install dispatch inst sol;
    (inst, sol, st)
  in
  let _, _, _ = solve_at 0 in
  (* j0's single map ran at 0..3; by 50 it has departed and j1 has not
     arrived: the instance is empty. *)
  let _, sol50, st50 = solve_at 50 in
  Alcotest.(check int) "empty optimum" 0 sol50.Solution.late_jobs;
  Alcotest.(check bool) "empty proved" true st50.Cp.Solver.proved_optimal;
  let inst100, sol100, st100 = solve_at 100 in
  Alcotest.(check bool) "later arrival proved" true
    st100.Cp.Solver.proved_optimal;
  Alcotest.(check (list string))
    "later arrival feasible" []
    (Solution.feasibility_errors inst100 sol100)

(* The manager's first pass on the default config (persistent session, warm
   start) must end where a cold Cp.Solver.solve on the equivalent fresh-jobs
   instance ends: same seed, bound, proof and objective.  That also checks
   that classify builds the cold instance.  Nodes and failures are not
   compared: the session store has its own horizon. *)
let test_first_pass_matches_cold () =
  (* single-task phases: the manager's classify reverses per-phase task
     order, so multi-task phases would not reproduce of_fresh_jobs's layout.
     The deadlines leave the greedy seed (2 late) above the optimum (1 late)
     and the bound (0), so the pass searches. *)
  let mk () =
    Gen.reset_tasks ();
    [
      Gen.mk_job ~id:0 ~deadline:11 ~maps:[ 6 ] ~reduces:[ 4 ] ();
      Gen.mk_job ~id:1 ~deadline:13 ~maps:[ 5 ] ~reduces:[ 3 ] ();
      Gen.mk_job ~id:2 ~deadline:16 ~maps:[ 4 ] ~reduces:[ 2 ] ();
    ]
  in
  let jobs = mk () in
  let cluster =
    T.uniform_cluster ~m:1 ~map_capacity:1 ~reduce_capacity:1
  in
  let mgr =
    Mrcp.Manager.create ~cluster
      {
        Mrcp.Manager.default_config with
        Mrcp.Manager.solver = proof_options;
        deferral_window = None;
        validate = true;
      }
  in
  List.iter (fun j -> Mrcp.Manager.submit mgr ~now:0 j) jobs;
  Mrcp.Manager.invoke mgr ~now:0;
  let mstats =
    match Mrcp.Manager.last_solver_stats mgr with
    | Some s -> s
    | None -> Alcotest.fail "manager did not solve"
  in
  (* every task is still unstarted at 0, so the plan holds the whole
     schedule *)
  let mlate =
    List.length
      (List.filter
         (fun (j : T.job) ->
           List.exists
             (fun (d : Sched.Dispatch.t) ->
               d.Sched.Dispatch.task.T.job_id = j.T.id
               && Sched.Dispatch.finish d > j.T.deadline)
             (Mrcp.Manager.plan mgr))
         jobs)
  in
  let jobs' = mk () in
  let inst =
    Instance.of_fresh_jobs ~now:0 ~map_capacity:1 ~reduce_capacity:1 jobs'
  in
  (* the manager has nothing to warm-start from on a first invocation *)
  let dsol, dstats = Cp.Solver.solve ~options:proof_options inst in
  Alcotest.(check int) "seed_late" dstats.Cp.Solver.seed_late
    mstats.Cp.Solver.seed_late;
  Alcotest.(check int) "lower_bound" dstats.Cp.Solver.lower_bound
    mstats.Cp.Solver.lower_bound;
  Alcotest.(check bool) "proved" dstats.Cp.Solver.proved_optimal
    mstats.Cp.Solver.proved_optimal;
  Alcotest.(check int) "late_jobs" dsol.Solution.late_jobs mlate

(* Instrumented session solves surface the session counters in stats; their
   per-invocation deltas must sum to the same totals the introspection
   accessors report. *)
let test_session_metrics () =
  let jobs = contention_stream () in
  let options =
    { proof_options with Cp.Solver.instrument = true }
  in
  let snaps = ref [] in
  let _session =
    drive ~options ~map_cap:1 ~reduce_cap:1 jobs
      (fun _ (_, sst) _ ->
        match sst.Cp.Solver.metrics with
        | Some snap -> snaps := snap :: !snaps
        | None -> Alcotest.fail "instrumented session solve without metrics")
  in
  let merged = Obs.Metrics.merge_all (List.rev !snaps) in
  let counter name =
    match List.assoc_opt name merged.Obs.Metrics.counters with
    | Some v -> v
    | None -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "session/appended_jobs" 4
    (counter "session/appended_jobs");
  Alcotest.(check int) "session/retracted" 2 (counter "session/retracted");
  Alcotest.(check int) "session/rebuilds" 0 (counter "session/rebuilds");
  Alcotest.(check bool) "session/cert_proofs present" true
    (List.mem_assoc "session/cert_proofs" merged.Obs.Metrics.counters);
  Alcotest.(check bool) "store/words_allocated present" true
    (List.mem_assoc "store/words_allocated" merged.Obs.Metrics.counters);
  (* the leaf's proposals narrow down: asked, of which tried, of which
     accepted *)
  let asked = counter "search/leaf_asked"
  and tried = counter "search/leaf_tried"
  and accepted = counter "search/leaf_accepted" in
  Alcotest.(check bool) "leaf asked >= tried >= accepted >= 0" true
    (asked >= tried && tried >= accepted && accepted >= 0)

(* (c) The recorded plan holds no finished work: the store retires a
   completed task at its recorded start and drops the entry, and a job's
   entries go once it has left.  After any pass that synced the store (the
   exact search ran), the entries are at most the instance's pending and
   running tasks. *)
let prop_recorded_starts_bounded =
  QCheck.Test.make ~count:40 ~name:"recorded starts bounded by open tasks"
    arb_stream
    (fun (jobs, map_cap, reduce_cap) ->
      let session = Cp.Session.create () in
      let dispatch = Hashtbl.create 64 in
      List.iter
        (fun now ->
          let inst = instance_at ~now ~map_cap ~reduce_cap dispatch jobs in
          let sol, st = Cp.Session.solve session ~options:proof_options inst in
          install dispatch inst sol;
          let open_tasks =
            Array.fold_left
              (fun acc (pj : Instance.pending_job) ->
                acc
                + Array.length pj.Instance.pending_maps
                + Array.length pj.Instance.pending_reduces
                + Array.length pj.Instance.fixed_maps
                + Array.length pj.Instance.fixed_reduces)
              0 inst.Instance.jobs
          in
          let recorded = Cp.Session.stats_recorded_starts session in
          if st.Cp.Solver.nodes + st.Cp.Solver.failures > 0
             && recorded > open_tasks
          then
            QCheck.Test.fail_reportf
              "t=%d: %d recorded starts for %d open tasks" now recorded
              open_tasks)
        (event_times jobs);
      true)

(* (d) What a long-lived session keeps does not grow with the stream: root
   writes leave no trail entries, a departed job's slot goes at the sync
   that retires it, and its task slots with it.  After every pass the
   store's trail is empty; after a pass that synced the store, its job
   slots are the instance's jobs, its task slots at most those jobs'
   tasks (retired ones of live jobs included), and its recorded starts at
   most their open tasks (so a job the store first holds after some of its
   tasks completed drops their starts). *)
let test_footprint_bounded () =
  Gen.reset_tasks ();
  let rng = Random.State.make [| 2027 |] in
  let jobs =
    List.init 90 (fun id ->
        let arrival = 9 * id in
        let list n = List.init n (fun _ -> 1 + Random.State.int rng 20) in
        let maps = list (1 + Random.State.int rng 3)
        and reduces = list (Random.State.int rng 3) in
        let total = List.fold_left ( + ) 0 (maps @ reduces) in
        Gen.mk_job ~id ~arrival ~est:arrival
          ~deadline:(arrival + total + Random.State.int rng 40)
          ~maps ~reduces ())
  in
  let options =
    { proof_options with Cp.Solver.fail_limit = 2_000; time_limit = 60. }
  in
  let session = Cp.Session.create () in
  let dispatch = Hashtbl.create 64 in
  let synced = ref 0 and peak = ref 0 in
  (* every arrival, and a point between each two so tasks complete *)
  let times =
    List.concat_map (fun (j : T.job) -> [ j.T.arrival; j.T.arrival + 5 ]) jobs
    @ [ 2_000; 10_000 ]
  in
  List.iter
    (fun now ->
      let inst = instance_at ~now ~map_cap:2 ~reduce_cap:2 dispatch jobs in
      let sol, st = Cp.Session.solve session ~options inst in
      install dispatch inst sol;
      let fp = Cp.Session.stats_footprint session in
      peak := max !peak fp.Cp.Session.job_slots;
      if fp.Cp.Session.root_trail <> 0 then
        Alcotest.failf "t=%d: %d root trail entries" now
          fp.Cp.Session.root_trail;
      if st.Cp.Solver.nodes + st.Cp.Solver.failures > 0 then begin
        incr synced;
        let n_jobs = Array.length inst.Instance.jobs in
        let count f =
          Array.fold_left (fun acc pj -> acc + f pj) 0 inst.Instance.jobs
        in
        let n_tasks =
          count (fun (pj : Instance.pending_job) ->
              Array.length pj.Instance.job.T.map_tasks
              + Array.length pj.Instance.job.T.reduce_tasks)
        and n_open =
          count (fun (pj : Instance.pending_job) ->
              Array.length pj.Instance.pending_maps
              + Array.length pj.Instance.pending_reduces
              + Array.length pj.Instance.fixed_maps
              + Array.length pj.Instance.fixed_reduces)
        in
        let recorded = Cp.Session.stats_recorded_starts session in
        if recorded > n_open then
          Alcotest.failf "t=%d: %d recorded starts for %d open tasks" now
            recorded n_open;
        if fp.Cp.Session.job_slots <> n_jobs then
          Alcotest.failf "t=%d: %d job slots for %d jobs" now
            fp.Cp.Session.job_slots n_jobs;
        if fp.Cp.Session.task_slots > n_tasks then
          Alcotest.failf "t=%d: %d task slots for %d tasks" now
            fp.Cp.Session.task_slots n_tasks
      end)
    times;
  Alcotest.(check bool) "the store synced on many passes" true (!synced > 20);
  Alcotest.(check int) "no rebuild reset the tables" 0
    (Cp.Session.stats_rebuilds session);
  Alcotest.(check bool) "the tables held far fewer jobs than the stream"
    true (!peak < 30)

(* --- the list-schedule leaf ------------------------------------------- *)

(* One task's occupation of its pool under a plan: [index] is its task
   index, or -1 for a running task. *)
type occupation = {
  index : int;
  job : int;
  is_map : bool;
  start : int;
  duration : int;
  demand : int;
}

let occupations (inst : Instance.t) (plan : Solution.t) =
  let acc = ref [] in
  Array.iteri
    (fun jdx (pj : Instance.pending_job) ->
      let off = inst.Instance.first.(jdx) in
      let add ~index ~is_map ~start (task : T.task) =
        acc :=
          {
            index;
            job = jdx;
            is_map;
            start;
            duration = task.T.exec_time;
            demand = task.T.capacity_req;
          }
          :: !acc
      in
      let n_maps = Array.length pj.Instance.pending_maps in
      Array.iteri
        (fun i task ->
          add ~index:(off + i) ~is_map:true
            ~start:plan.Solution.starts.(off + i) task)
        pj.Instance.pending_maps;
      Array.iteri
        (fun i task ->
          let k = off + n_maps + i in
          add ~index:k ~is_map:false ~start:plan.Solution.starts.(k) task)
        pj.Instance.pending_reduces;
      let running ~is_map (f : Instance.fixed_task) =
        add ~index:(-1) ~is_map ~start:f.Instance.start f.Instance.task
      in
      Array.iter (running ~is_map:true) pj.Instance.fixed_maps;
      Array.iter (running ~is_map:false) pj.Instance.fixed_reduces)
    inst.Instance.jobs;
  !acc

(* [plan] with one pending start moved onto an instant its pool cannot
   take: the start of some occupation, at or after the task's est and
   outside its own window, where the pool's usage, running work included,
   leaves less room than the task needs.  A move that keeps the job's
   completion is preferred, since it keeps the plan's late count: a store
   that failed to check the plan would then record it.  [None] when the
   plan has no such instant. *)
let onto_full_instant (inst : Instance.t) (plan : Solution.t) =
  let occ = occupations inst plan in
  let covers t o = o.start <= t && t < o.start + o.duration in
  let usage is_map t =
    List.fold_left
      (fun acc o ->
        if o.is_map = is_map && covers t o then acc + o.demand else acc)
      0 occ
  in
  let capacity is_map =
    if is_map then inst.Instance.map_capacity
    else inst.Instance.reduce_capacity
  in
  let moves =
    List.concat_map
      (fun o ->
        if o.index < 0 || o.duration = 0 then []
        else
          List.filter_map
            (fun at ->
              let t = at.start in
              if
                at.is_map = o.is_map
                && t >= inst.Instance.jobs.(o.job).Instance.est
                && (not (covers t o))
                && usage o.is_map t + o.demand > capacity o.is_map
              then Some (o, t)
              else None)
            occ)
      occ
  in
  let keeps_completion (o, t) =
    t + o.duration
    <= Solution.job_completion inst o.job plan.Solution.starts
  in
  let kept, rest = List.partition keeps_completion moves in
  match kept @ rest with
  | [] -> None
  | (o, t) :: _ ->
      let starts = Array.copy plan.Solution.starts in
      starts.(o.index) <- t;
      Some { plan with Solution.starts }

(* [plan] with its first pending start one step below its job's est *)
let below_est (inst : Instance.t) (plan : Solution.t) =
  let jdx = ref 0 in
  while inst.Instance.first.(!jdx + 1) = 0 do
    incr jdx
  done;
  let starts = Array.copy plan.Solution.starts in
  starts.(0) <- inst.Instance.jobs.(!jdx).Instance.est - 1;
  { plan with Solution.starts }

(* The leaf's soundness does not rest on its proposer: the search records a
   proposal only once the store accepts it.  A proposer that corrupts one
   start of every proposal — onto an instant already full, or one step
   below its est — keeps its late count, so the search still tries it.  The
   run must still return a feasible plan, and no fewer late jobs than the
   cold model search proves optimal (that search has no leaf).  Where the
   runs prove, the corrupt run's Σ N_j is the honest run's and the cold
   optimum.  The session's store has no edge finding, so on a unary pool it
   may stop at the fail limit where the cold model proves at its root. *)
let leaf_options = { proof_options with Cp.Solver.fail_limit = 5_000 }

let prop_leaf_sound =
  QCheck.Test.make ~count:300 ~name:"a corrupt list leaf is never recorded"
    (QCheck.pair Gen.arb_fresh_or_midstream QCheck.bool)
    (fun (inst, overload) ->
      (* a mid-stream instance whose running work overloads a pool has no
         feasible plan; the greedy list schedule, feasible around any
         running work that fits, tells them apart *)
      QCheck.assume
        (Solution.feasibility_errors inst (Sched.Greedy.solve inst) = []);
      let options = leaf_options in
      let corrupt propose late =
        let plan = propose late in
        match if overload then onto_full_instant inst plan else None with
        | Some bad -> bad
        | None -> below_est inst plan
      in
      let bad, bad_st =
        Cp.Session.solve ~wrap_leaf:corrupt (Cp.Session.create ()) ~options
          inst
      in
      let honest, honest_st =
        Cp.Session.solve (Cp.Session.create ()) ~options inst
      in
      let cold, cold_st = Cp.Solver.solve ~options inst in
      let late (sol : Solution.t) = sol.Solution.late_jobs in
      let proved (st : Cp.Solver.stats) = st.Cp.Solver.proved_optimal in
      (match Solution.feasibility_errors inst bad with
      | [] -> ()
      | errs ->
          QCheck.Test.fail_reportf "the corrupt run's plan is infeasible: %s"
            (String.concat "; " errs));
      if proved cold_st && late bad < late cold then
        QCheck.Test.fail_reportf "corrupt %d late, below the cold optimum %d"
          (late bad) (late cold);
      if proved bad_st && proved cold_st && late bad <> late cold then
        QCheck.Test.fail_reportf "corrupt %d late, cold %d" (late bad)
          (late cold);
      if proved bad_st && proved honest_st && late bad <> late honest then
        QCheck.Test.fail_reportf "corrupt %d late, honest %d" (late bad)
          (late honest);
      true)

(* The repaired leaf against its plain reference ([Leaf_reference]), twice
   on one proposer (it keeps its sequence between asks) with random
   lateness decisions: the same plan, never worse than the plain EDF-then-
   work schedule it starts from, at most (on-time jobs + 1) list schedules
   per ask, and feasible. *)
let prop_leaf_reference =
  QCheck.Test.make ~count:300 ~name:"the repaired leaf = its reference"
    (QCheck.pair Gen.arb_fresh_or_midstream QCheck.int)
    (fun (inst, seed) ->
      (* as above: running work that overloads a pool leaves no feasible
         list schedule *)
      QCheck.assume
        (Solution.feasibility_errors inst (Sched.Greedy.solve inst) = []);
      let rng = Random.State.make [| seed |] in
      let n = Array.length inst.Instance.jobs in
      let pass = Cp.Solver.prepare inst in
      let propose = Cp.Solver.list_leaf pass in
      let ask () =
        let late = Array.init n (fun _ -> Random.State.bool rng) in
        let on_time =
          Array.fold_left (fun acc l -> if l then acc else acc + 1) 0 late
        in
        let before = Cp.Solver.schedules_run pass in
        let plan = propose late in
        let schedules = Cp.Solver.schedules_run pass - before in
        let expected, plain, _ = Leaf_reference.leaf inst late in
        if
          plan.Solution.starts <> expected.Solution.starts
          || plan.Solution.late_jobs <> expected.Solution.late_jobs
          || plan.Solution.total_tardiness
             <> expected.Solution.total_tardiness
        then
          QCheck.Test.fail_reportf
            "leaf %d late (tardiness %d), reference %d late (tardiness %d)"
            plan.Solution.late_jobs plan.Solution.total_tardiness
            expected.Solution.late_jobs expected.Solution.total_tardiness;
        if Solution.better plain plan then
          QCheck.Test.fail_reportf "leaf %d late, the plain schedule %d"
            plan.Solution.late_jobs plain.Solution.late_jobs;
        if schedules > on_time + 1 then
          QCheck.Test.fail_reportf "%d schedules for %d on-time jobs"
            schedules on_time;
        match Solution.feasibility_errors inst plan with
        | [] -> ()
        | errs ->
            QCheck.Test.fail_reportf "the leaf's plan is infeasible: %s"
              (String.concat "; " errs)
      in
      ask ();
      ask ();
      true)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "session"
    [
      ( "differential",
        qsuite
          [
            prop_session_matches_cold;
            prop_session_counters;
          ] );
      ("plan", qsuite [ prop_recorded_starts_bounded ]);
      ("leaf", qsuite [ prop_leaf_sound; prop_leaf_reference ]);
      ( "deterministic",
        [
          Alcotest.test_case "counters over contending pairs" `Quick
            test_counters_deterministic;
          Alcotest.test_case "certificate carries a proof" `Quick
            test_cert_proof;
          Alcotest.test_case "carried bound reaches an unsearched pass"
            `Quick test_cert_bound_unsearched;
          Alcotest.test_case "wall-capped pass drops the store" `Quick
            test_wall_capped_pass_drops_store;
          Alcotest.test_case "empty invocation mid-stream" `Quick
            test_empty_invocation;
          Alcotest.test_case "footprint bounded over a long stream" `Quick
            test_footprint_bounded;
          Alcotest.test_case "manager first pass matches cold solve" `Quick
            test_first_pass_matches_cold;
          Alcotest.test_case "instrumented session counters" `Quick
            test_session_metrics;
          Alcotest.test_case "manager pass proved by the certificate" `Quick
            test_manager_cert;
        ] );
    ]
