(* Simulator snapshots: two digests of each of three fixed runs.
   - The plan digest covers the job outcomes and every reaction the
     manager returned (each pass's plan or launches), in order: what the
     run decided.
   - The journal digest covers the outcomes, the run totals and the
     canonical decision journal, whose [invoke] lines also carry the
     solver's counters (nodes, failures, stop reason).
   A change that moves only the journal digest moved a counter, not a
   decision.  The runs:
   - a fault-free contended stream under MRCP-RM;
   - the same stream with crashes, rejoins, stragglers and failed attempts;
   - a MinEDF-WC stream (immediate dispatch, no plan to reconcile).
   The simulator's event path was rewritten for speed (the event heap of
   pending events in recycled slots, the per-run arrays over a numbering
   of the run's tasks, the reconcile that touches only moved dispatches)
   under these digests, keeping the order in which same-instant events
   fire.  They moved since only with the solver's plans and counters.
   None of these streams has two jobs arriving at one instant.  The one
   intended change of behaviour, one manager pass per arrival instant, has
   its own case below. *)

module T = Mapreduce.Types
module Sim = Opensim.Simulator

let cluster () = T.uniform_cluster ~m:4 ~map_capacity:2 ~reduce_capacity:2

(* the contended episodes of perfbench, at 20 jobs *)
let params =
  {
    Mapreduce.Synthetic.default with
    n_jobs = 20;
    lambda = 0.05;
    map_tasks_max = 12;
    reduce_tasks_max = 4;
    e_max = 25;
    s_max = 100;
    d_m = 1.5;
  }

(* no wall-clock limit: every pass stops on its search, so the run is a
   function of its inputs *)
let config journal =
  {
    Mrcp.Manager.default_config with
    Mrcp.Manager.solver =
      {
        Cp.Solver.default_options with
        Cp.Solver.exact_task_limit = 400;
        fail_limit = 2_000;
        time_limit = 1e9;
      };
    validate = true;
    journal = Some journal;
  }

let chaos_config =
  {
    Opensim.Chaos.default with
    crash_rate = 1e-3;
    straggler_p = 0.05;
    task_failure_p = 0.05;
  }

let add_outcomes b (r : Sim.results) =
  List.iter
    (fun (o : Sim.job_outcome) ->
      Printf.bprintf b "%d:%d:%b:%d;" o.Sim.job.T.id o.Sim.completion o.Sim.late
        o.Sim.turnaround_ms)
    r.Sim.outcomes

(* [driver] with every reaction it returns written to [log]: the instant,
   then each dispatch as task@resource/slot:start *)
let logging log (driver : Opensim.Driver.t) =
  let add tag now ds =
    Printf.bprintf log "%s %d" tag now;
    List.iter
      (fun (d : Sched.Dispatch.t) ->
        Printf.bprintf log " %d@%d/%d:%d" d.Sched.Dispatch.task.T.task_id
          d.Sched.Dispatch.resource_id d.Sched.Dispatch.slot
          d.Sched.Dispatch.start)
      ds;
    Buffer.add_char log '\n'
  in
  let react ~now =
    let reaction = driver.Opensim.Driver.react ~now in
    (match reaction with
    | Opensim.Driver.Full_plan ds -> add "plan" now ds
    | Opensim.Driver.Launch ds -> add "launch" now ds
    | Opensim.Driver.No_change -> Printf.bprintf log "keep %d\n" now);
    reaction
  in
  { driver with Opensim.Driver.react }

let plan_digest (r : Sim.results) log =
  let b = Buffer.create 1024 in
  add_outcomes b r;
  Buffer.add_buffer b log;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest (r : Sim.results) journal =
  let b = Buffer.create 1024 in
  add_outcomes b r;
  Printf.bprintf b "|events %d solves %d makespan %d busy %d/%d"
    r.Sim.events_executed r.Sim.solves r.Sim.makespan_ms r.Sim.map_busy_ms
    r.Sim.reduce_busy_ms;
  Printf.bprintf b "|faults %d %d %d %d %d" r.Sim.crashes r.Sim.rejoins
    r.Sim.task_failures r.Sim.stragglers r.Sim.lost_work_ms;
  Buffer.add_string b (Obs.Journal.fingerprint (Obs.Journal.to_string journal));
  Digest.to_hex (Digest.string (Buffer.contents b))

let snapshot ?(chaos = false) kind ~seed =
  let cluster = cluster () in
  let jobs = Mapreduce.Synthetic.generate params ~cluster ~seed in
  let chaos =
    if chaos then Opensim.Chaos.materialize chaos_config ~cluster ~jobs ~seed
    else Opensim.Chaos.no_faults
  in
  let journal = Obs.Journal.create () and log = Buffer.create 4096 in
  let driver =
    logging log (Opensim.Driver.make kind ~cluster (config journal))
  in
  let r = Sim.run ~validate:true ~journal ~cluster ~chaos ~driver ~jobs () in
  (r, plan_digest r log, digest r journal)

let check_pinned name ~plans ~journal (r, got_plans, got_journal) =
  Alcotest.(check int)
    (name ^ ": every job done")
    params.n_jobs r.Sim.jobs_total;
  Alcotest.(check string) (name ^ ": plan digest") plans got_plans;
  Alcotest.(check string) (name ^ ": journal digest") journal got_journal

let test_contended () =
  check_pinned "contended" ~plans:"6f9d8213df856e62f78255361b02da2a"
    ~journal:"b19dbfa179dde5d36e0c7abbb9303621"
    (snapshot Opensim.Driver.Mrcp_rm ~seed:5)

let test_chaos () =
  let ((r, _, _) as run) =
    snapshot ~chaos:true Opensim.Driver.Mrcp_rm ~seed:5
  in
  Alcotest.(check bool)
    "the plan crashes, straggles and fails attempts" true
    (r.Sim.crashes > 0 && r.Sim.rejoins > 0 && r.Sim.stragglers > 0
    && r.Sim.task_failures > 0);
  check_pinned "chaos" ~plans:"59314aa22508459af7acb796a5a78090"
    ~journal:"caf602fe27a68ebedc54091a502c6733" run

let test_baseline () =
  check_pinned "minedf-wc" ~plans:"23df96238ca87e32f99675507332930a"
    ~journal:"d0f7c515993f14e91035dc4e2a7b7a0e"
    (snapshot Opensim.Driver.Min_edf_wc ~seed:5)

(* Jobs that arrive at one instant are submitted together before the
   manager reacts once, so the first pass plans them all and no task
   starts (is frozen) before a job of the same instant is seen.  The
   simulator once reacted after each arrival: three jobs at t=0 made three
   passes there, and the second already found job 0's map frozen. *)
let test_same_instant_arrivals () =
  Gen.reset_tasks ();
  let jobs =
    [
      Gen.mk_job ~id:0 ~deadline:11_000 ~maps:[ 6_000 ] ~reduces:[ 4_000 ] ();
      Gen.mk_job ~id:1 ~deadline:13_000 ~maps:[ 5_000 ] ~reduces:[ 3_000 ] ();
      Gen.mk_job ~id:2 ~deadline:16_000 ~maps:[ 4_000 ] ~reduces:[ 2_000 ] ();
      Gen.mk_job ~id:3 ~arrival:1_000 ~deadline:30_000 ~maps:[ 1_000 ]
        ~reduces:[] ();
    ]
  in
  let cluster = T.uniform_cluster ~m:1 ~map_capacity:1 ~reduce_capacity:1 in
  let journal = Obs.Journal.create () in
  let driver =
    Opensim.Driver.make Opensim.Driver.Mrcp_rm ~cluster (config journal)
  in
  let r = Sim.run ~validate:true ~journal ~driver ~jobs () in
  let field name = function
    | Obs.Json.Obj kvs -> List.assoc_opt name kvs
    | _ -> None
  in
  let events =
    Obs.Journal.to_string journal
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           let j = Result.get_ok (Obs.Json.of_string l) in
           match (field "t" j, field "ev" j) with
           | Some (Obs.Json.Int t), Some (Obs.Json.String ev) -> (t, ev)
           | _ -> Alcotest.fail ("journal line without t or ev: " ^ l))
  in
  let at t ev = List.filter (fun e -> e = (t, ev)) events |> List.length in
  Alcotest.(check int) "three arrivals at t=0" 3 (at 0 "arrival");
  Alcotest.(check int) "one pass at t=0" 1 (at 0 "invoke");
  Alcotest.(check int) "one pass at t=1000" 1 (at 1_000 "invoke");
  Alcotest.(check int) "a pass per arrival instant" 2 r.Sim.solves;
  (* the pass comes after every job of its instant is in *)
  let rec arrivals_first seen_invoke = function
    | [] -> true
    | (0, "arrival") :: _ when seen_invoke -> false
    | (0, "invoke") :: rest -> arrivals_first true rest
    | _ :: rest -> arrivals_first seen_invoke rest
  in
  Alcotest.(check bool) "arrivals before the pass" true
    (arrivals_first false events)

(* A run maps task ids to its own task index through a direct table over
   the ids' range, or a hash table when the ids are too sparse for one (a
   replayed trace may use any ids).  The same stream with its task ids
   spread a million apart must run exactly as with the generator's
   consecutive ids. *)
let test_sparse_task_ids () =
  let cluster = cluster () in
  let jobs = Mapreduce.Synthetic.generate params ~cluster ~seed:5 in
  let spread (t : T.task) =
    { t with T.task_id = (t.T.task_id * 1_000_003) + 7 }
  in
  let sparse =
    List.map
      (fun (j : T.job) ->
        {
          j with
          T.map_tasks = Array.map spread j.T.map_tasks;
          reduce_tasks = Array.map spread j.T.reduce_tasks;
        })
      jobs
  in
  let run jobs =
    let driver =
      Opensim.Driver.make Opensim.Driver.Mrcp_rm ~cluster
        (config (Obs.Journal.create ()))
    in
    let r = Sim.run ~validate:true ~driver ~jobs () in
    ( List.map
        (fun (o : Sim.job_outcome) -> (o.Sim.job.T.id, o.Sim.completion))
        r.Sim.outcomes,
      r.Sim.events_executed,
      r.Sim.solves )
  in
  Alcotest.(check (triple (list (pair int int)) int int))
    "same outcomes, events and passes" (run jobs) (run sparse)

let () =
  Alcotest.run "sim_snapshot"
    [
      ( "snapshot",
        [
          Alcotest.test_case "contended stream" `Quick test_contended;
          Alcotest.test_case "chaos stream" `Quick test_chaos;
          Alcotest.test_case "minedf-wc stream" `Quick test_baseline;
        ] );
      ( "numbering",
        [ Alcotest.test_case "sparse task ids" `Quick test_sparse_task_ids ] );
      ( "arrivals",
        [
          Alcotest.test_case "one pass per arrival instant" `Quick
            test_same_instant_arrivals;
        ] );
    ]
