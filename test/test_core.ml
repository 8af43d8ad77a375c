(* Tests for the MRCP-RM core: the §V.D matchmaker and the Table-2 manager. *)

module T = Mapreduce.Types
module Dispatch = Sched.Dispatch

let cluster2x2 = T.uniform_cluster ~m:2 ~map_capacity:2 ~reduce_capacity:2

let mk_task ~id ?(job = 0) ?(kind = T.Map_task) ~e () =
  Gen.mk_task ~id ~job ~kind ~e

(* --- matchmaker --------------------------------------------------------- *)

let test_slot_counts () =
  let mm = Mrcp.Matchmaker.create ~cluster:cluster2x2 in
  Alcotest.(check int) "map slots" 4 (Mrcp.Matchmaker.map_slot_count mm);
  Alcotest.(check int) "reduce slots" 4 (Mrcp.Matchmaker.reduce_slot_count mm)

let test_assign_basic () =
  let mm = Mrcp.Matchmaker.create ~cluster:cluster2x2 in
  let t1 = mk_task ~id:1 ~e:10 () in
  let d1 = Mrcp.Matchmaker.assign mm ~kind:T.Map_task ~task:t1 ~start:0 in
  Alcotest.(check int) "start preserved" 0 d1.Dispatch.start;
  Alcotest.(check bool) "valid slot" true (d1.Dispatch.slot >= 0 && d1.Dispatch.slot < 4)

let test_assign_best_fit_gap () =
  (* Paper §V.D example: r1 busy until 10, r2 busy until 8; a task starting
     at 11 goes to the slot leaving the smaller gap (the one free at 10). *)
  let mm = Mrcp.Matchmaker.create ~cluster:(T.uniform_cluster ~m:2 ~map_capacity:1 ~reduce_capacity:1) in
  Mrcp.Matchmaker.occupy mm ~kind:T.Map_task ~slot:0 ~until:10;
  Mrcp.Matchmaker.occupy mm ~kind:T.Map_task ~slot:1 ~until:8;
  let t = mk_task ~id:1 ~e:4 () in
  let d = Mrcp.Matchmaker.assign mm ~kind:T.Map_task ~task:t ~start:11 in
  Alcotest.(check int) "smallest gap slot chosen" 0 d.Dispatch.slot

let test_assign_never_overlaps () =
  (* a capacity-feasible combined schedule always matchmakes conflict-free *)
  let cluster = T.uniform_cluster ~m:3 ~map_capacity:2 ~reduce_capacity:1 in
  let mm = Mrcp.Matchmaker.create ~cluster in
  (* 6 map slots: schedule tasks with <= 6 concurrent *)
  let tasks = Array.init 18 (fun i -> mk_task ~id:i ~e:10 ()) in
  (* waves of 6 starting at 0, 10, 20 *)
  let starts = Array.init 18 (fun i -> i / 6 * 10) in
  let installed = Array.make 18 (-1) in
  let ds =
    Mrcp.Matchmaker.assign_all mm ~starts ~tasks
      ~on_assign:(fun k d -> installed.(k) <- d.Dispatch.task.T.task_id)
  in
  Alcotest.(check (array int)) "each dispatch reported at its task's index"
    (Array.init 18 Fun.id) installed;
  Alcotest.(check int) "all assigned" 18 (List.length ds);
  (* no two dispatches on the same slot overlap *)
  List.iteri
    (fun i (a : Dispatch.t) ->
      List.iteri
        (fun j (b : Dispatch.t) ->
          if i < j && a.Dispatch.slot = b.Dispatch.slot then begin
            let disjoint =
              Dispatch.finish a <= b.Dispatch.start
              || Dispatch.finish b <= a.Dispatch.start
            in
            Alcotest.(check bool) "no slot overlap" true disjoint
          end)
        ds)
    ds;
  (* the manager installs the result as its plan without sorting it again:
     start order, ties by task id, whatever order [tasks] came in *)
  let mm = Mrcp.Matchmaker.create ~cluster in
  let rev a =
    Array.init (Array.length a) (fun i -> a.(Array.length a - 1 - i))
  in
  let ds =
    Mrcp.Matchmaker.assign_all mm ~starts:(rev starts) ~tasks:(rev tasks)
  in
  Alcotest.(check (list int)) "compare_by_start order"
    (List.map
       (fun (d : Dispatch.t) -> d.Dispatch.task.T.task_id)
       (List.sort Dispatch.compare_by_start ds))
    (List.map (fun (d : Dispatch.t) -> d.Dispatch.task.T.task_id) ds)

let test_occupied_slots_avoided () =
  let cluster = T.uniform_cluster ~m:1 ~map_capacity:2 ~reduce_capacity:1 in
  let mm = Mrcp.Matchmaker.create ~cluster in
  (* slot 0 runs a frozen task until 100 *)
  Mrcp.Matchmaker.occupy mm ~kind:T.Map_task ~slot:0 ~until:100;
  let t = mk_task ~id:1 ~e:10 () in
  let d = Mrcp.Matchmaker.assign mm ~kind:T.Map_task ~task:t ~start:50 in
  Alcotest.(check int) "other slot used" 1 d.Dispatch.slot

let test_spread_evenly_paper_example () =
  (* §V.D: 100 reduce slots over 30 resources -> twenty 3s and ten 4s *)
  let shares = Mrcp.Matchmaker.spread_evenly ~slots:100 ~over:30 in
  let threes = Array.to_list shares |> List.filter (( = ) 3) |> List.length in
  let fours = Array.to_list shares |> List.filter (( = ) 4) |> List.length in
  Alcotest.(check int) "twenty resources with 3" 20 threes;
  Alcotest.(check int) "ten resources with 4" 10 fours;
  Alcotest.(check int) "total conserved" 100 (Array.fold_left ( + ) 0 shares)

let test_spread_evenly_exact_division () =
  let shares = Mrcp.Matchmaker.spread_evenly ~slots:100 ~over:50 in
  Array.iter (fun s -> Alcotest.(check int) "all equal" 2 s) shares

(* --- manager ------------------------------------------------------------- *)

let mk_job = Gen.mk_job

let validating_config =
  { Mrcp.Manager.default_config with Mrcp.Manager.validate = true }

let test_manager_plans_on_submit () =
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 validating_config in
  let job = mk_job ~id:0 ~deadline:100_000 ~maps:[ 1000; 2000 ] ~reduces:[ 500 ] () in
  Mrcp.Manager.submit mgr ~now:0 job;
  Alcotest.(check (list Alcotest.reject)) "no plan before invoke" []
    (List.map (fun _ -> Alcotest.fail "unexpected") (Mrcp.Manager.plan mgr));
  Mrcp.Manager.invoke mgr ~now:0;
  let plan = Mrcp.Manager.plan mgr in
  Alcotest.(check int) "all three tasks planned" 3 (List.length plan);
  Alcotest.(check int) "one solve" 1 (Mrcp.Manager.solve_count mgr);
  Alcotest.(check int) "one job scheduled" 1 (Mrcp.Manager.jobs_scheduled mgr);
  (* maps at t=0, reduce after the longest map *)
  List.iter
    (fun (d : Dispatch.t) ->
      match d.Dispatch.task.T.kind with
      | T.Map_task -> Alcotest.(check int) "maps immediately" 0 d.Dispatch.start
      | T.Reduce_task ->
          Alcotest.(check int) "reduce at LFMT" 2000 d.Dispatch.start)
    plan

let test_manager_invoke_without_work_is_noop () =
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 validating_config in
  Mrcp.Manager.invoke mgr ~now:0;
  Alcotest.(check int) "no solve" 0 (Mrcp.Manager.solve_count mgr);
  Alcotest.(check bool) "no overhead" true
    (Mrcp.Manager.overhead_seconds mgr = 0.)

let test_manager_reschedules_unstarted () =
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 validating_config in
  (* job 0's reduce is planned for t=2000; before anything starts, a tighter
     job arrives; MRCP-RM may remap everything that has not started *)
  let j0 = mk_job ~id:0 ~deadline:100_000 ~maps:[ 1000 ] ~reduces:[ 1000 ] () in
  Mrcp.Manager.submit mgr ~now:0 j0;
  Mrcp.Manager.invoke mgr ~now:0;
  let j1 = mk_job ~id:1 ~arrival:100 ~deadline:10_000 ~maps:[ 500 ] ~reduces:[] () in
  Mrcp.Manager.submit mgr ~now:100 j1;
  Mrcp.Manager.invoke mgr ~now:100;
  let plan = Mrcp.Manager.plan mgr in
  (* j0's map started at 0 (frozen), so the plan covers j0's reduce + j1's map *)
  Alcotest.(check int) "two unstarted tasks planned" 2 (List.length plan);
  List.iter
    (fun (d : Dispatch.t) ->
      Alcotest.(check bool) "no past starts" true (d.Dispatch.start >= 100))
    plan;
  Alcotest.(check int) "two jobs scheduled" 2 (Mrcp.Manager.jobs_scheduled mgr)

let test_manager_deferral () =
  let config =
    { validating_config with Mrcp.Manager.deferral_window = Some 10_000 }
  in
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 config in
  (* s_j = 100s, window = 10s: deferred until 90s *)
  let job = mk_job ~id:0 ~est:100_000 ~deadline:500_000 ~maps:[ 1000 ] ~reduces:[] () in
  Mrcp.Manager.submit mgr ~now:0 job;
  Mrcp.Manager.invoke mgr ~now:0;
  Alcotest.(check int) "not scheduled yet" 0 (Mrcp.Manager.solve_count mgr);
  Alcotest.(check (option int)) "wake at s_j - window" (Some 90_000)
    (Mrcp.Manager.next_wake mgr);
  Mrcp.Manager.invoke mgr ~now:90_000;
  Alcotest.(check int) "scheduled at wake" 1 (Mrcp.Manager.solve_count mgr);
  Alcotest.(check (option int)) "no more wakes" None (Mrcp.Manager.next_wake mgr);
  let plan = Mrcp.Manager.plan mgr in
  List.iter
    (fun (d : Dispatch.t) ->
      Alcotest.(check bool) "start respects s_j" true
        (d.Dispatch.start >= 100_000))
    plan

let test_manager_deferral_disabled () =
  let config = { validating_config with Mrcp.Manager.deferral_window = None } in
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 config in
  let job = mk_job ~id:0 ~est:100_000 ~deadline:500_000 ~maps:[ 1000 ] ~reduces:[] () in
  Mrcp.Manager.submit mgr ~now:0 job;
  Mrcp.Manager.invoke mgr ~now:0;
  Alcotest.(check int) "scheduled immediately" 1 (Mrcp.Manager.solve_count mgr)

let test_manager_frozen_tasks_keep_slots () =
  let cluster = T.uniform_cluster ~m:1 ~map_capacity:1 ~reduce_capacity:1 in
  let mgr = Mrcp.Manager.create ~cluster validating_config in
  let j0 = mk_job ~id:0 ~deadline:1_000_000 ~maps:[ 10_000 ] ~reduces:[] () in
  Mrcp.Manager.submit mgr ~now:0 j0;
  Mrcp.Manager.invoke mgr ~now:0;
  (* j0's map runs [0,10000) on the only slot.  At t=5000 a new job arrives:
     its map must be planned at >= 10000 (slot busy with a frozen task). *)
  let j1 = mk_job ~id:1 ~arrival:5000 ~deadline:1_000_000 ~maps:[ 1000 ] ~reduces:[] () in
  Mrcp.Manager.submit mgr ~now:5000 j1;
  Mrcp.Manager.invoke mgr ~now:5000;
  let plan = Mrcp.Manager.plan mgr in
  Alcotest.(check int) "only j1's map in plan" 1 (List.length plan);
  let d = List.hd plan in
  Alcotest.(check bool) "waits for the frozen task" true
    (d.Dispatch.start >= 10_000)

let test_manager_completed_jobs_leave () =
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 validating_config in
  let j0 = mk_job ~id:0 ~deadline:100_000 ~maps:[ 1000 ] ~reduces:[ 1000 ] () in
  Mrcp.Manager.submit mgr ~now:0 j0;
  Mrcp.Manager.invoke mgr ~now:0;
  Alcotest.(check int) "active" 1 (Mrcp.Manager.active_jobs mgr);
  (* long after both tasks finished, a new arrival triggers cleanup *)
  let j1 = mk_job ~id:1 ~arrival:50_000 ~deadline:200_000 ~maps:[ 1000 ] ~reduces:[] () in
  Mrcp.Manager.submit mgr ~now:50_000 j1;
  Mrcp.Manager.invoke mgr ~now:50_000;
  Alcotest.(check int) "j0 retired, j1 active" 1 (Mrcp.Manager.active_jobs mgr)

(* A task the manager has counted as finished comes back when a fault
   notification requeues it: the next pass plans it again (and the job,
   with an open task, stays active). *)
let test_manager_requeue_finished_task () =
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 validating_config in
  let j0 =
    mk_job ~id:0 ~deadline:100_000 ~maps:[ 1000; 1000 ] ~reduces:[ 1000 ] ()
  in
  Mrcp.Manager.submit mgr ~now:0 j0;
  Mrcp.Manager.invoke mgr ~now:0;
  (* both maps ran on [0, 1000); a pass at 1500 counts them finished and
     freezes the running reduce *)
  let j1 =
    mk_job ~id:1 ~arrival:1500 ~deadline:200_000 ~maps:[ 5000 ] ~reduces:[] ()
  in
  Mrcp.Manager.submit mgr ~now:1500 j1;
  Mrcp.Manager.invoke mgr ~now:1500;
  let map0 = j0.T.map_tasks.(0).T.task_id in
  let planned id =
    List.exists
      (fun (d : Sched.Dispatch.t) -> d.Sched.Dispatch.task.T.task_id = id)
      (Mrcp.Manager.plan mgr)
  in
  Alcotest.(check bool) "finished map not planned" false (planned map0);
  Mrcp.Manager.task_attempt_failed mgr ~now:1600 ~task_id:map0;
  Mrcp.Manager.invoke mgr ~now:1600;
  Alcotest.(check bool) "requeued map planned again" true (planned map0);
  Alcotest.(check int) "both jobs active" 2 (Mrcp.Manager.active_jobs mgr)

let test_manager_overhead_accumulates () =
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 validating_config in
  let j = mk_job ~id:0 ~deadline:100_000 ~maps:[ 1000 ] ~reduces:[] () in
  Mrcp.Manager.submit mgr ~now:0 j;
  Mrcp.Manager.invoke mgr ~now:0;
  Alcotest.(check bool) "overhead measured" true
    (Mrcp.Manager.overhead_seconds mgr > 0.)

(* With every resource down no pending task can be placed: the pass
   installs an empty plan instead of solving over a zero capacity, and the
   rejoin's pass plans every pending task. *)
let test_manager_all_resources_down () =
  let cluster = T.uniform_cluster ~m:2 ~map_capacity:1 ~reduce_capacity:1 in
  let mgr = Mrcp.Manager.create ~cluster validating_config in
  Mrcp.Manager.resource_lost mgr ~now:0 ~resource_id:0 ~lost:[];
  Mrcp.Manager.resource_lost mgr ~now:0 ~resource_id:1 ~lost:[];
  let job = mk_job ~id:0 ~deadline:100_000 ~maps:[ 1000; 2000 ] ~reduces:[ 500 ] () in
  Mrcp.Manager.submit mgr ~now:0 job;
  Mrcp.Manager.invoke mgr ~now:0;
  Alcotest.(check int) "empty plan while everything is down" 0
    (List.length (Mrcp.Manager.plan mgr));
  Alcotest.(check int) "no solve" 0 (Mrcp.Manager.solve_count mgr);
  Mrcp.Manager.resource_rejoined mgr ~now:10 ~resource_id:1;
  Mrcp.Manager.invoke mgr ~now:10;
  let plan = Mrcp.Manager.plan mgr in
  Alcotest.(check int) "every pending task planned after the rejoin" 3
    (List.length plan);
  List.iter
    (fun (d : Dispatch.t) ->
      Alcotest.(check int) "on the resource that is up" 1 d.Dispatch.resource_id)
    plan

let () =
  Alcotest.run "core"
    [
      ( "matchmaker",
        [
          Alcotest.test_case "slot counts" `Quick test_slot_counts;
          Alcotest.test_case "assign basic" `Quick test_assign_basic;
          Alcotest.test_case "best fit gap" `Quick test_assign_best_fit_gap;
          Alcotest.test_case "never overlaps" `Quick test_assign_never_overlaps;
          Alcotest.test_case "occupied avoided" `Quick
            test_occupied_slots_avoided;
          Alcotest.test_case "spread paper example" `Quick
            test_spread_evenly_paper_example;
          Alcotest.test_case "spread exact" `Quick
            test_spread_evenly_exact_division;
        ] );
      ( "manager",
        [
          Alcotest.test_case "plans on submit" `Quick
            test_manager_plans_on_submit;
          Alcotest.test_case "noop invoke" `Quick
            test_manager_invoke_without_work_is_noop;
          Alcotest.test_case "reschedules unstarted" `Quick
            test_manager_reschedules_unstarted;
          Alcotest.test_case "deferral" `Quick test_manager_deferral;
          Alcotest.test_case "deferral disabled" `Quick
            test_manager_deferral_disabled;
          Alcotest.test_case "frozen tasks keep slots" `Quick
            test_manager_frozen_tasks_keep_slots;
          Alcotest.test_case "completed jobs leave" `Quick
            test_manager_completed_jobs_leave;
          Alcotest.test_case "requeued finished task planned again" `Quick
            test_manager_requeue_finished_task;
          Alcotest.test_case "overhead accumulates" `Quick
            test_manager_overhead_accumulates;
          Alcotest.test_case "every resource down" `Quick
            test_manager_all_resources_down;
        ] );
    ]
