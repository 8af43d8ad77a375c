(* Property and regression tests for warm-start incremental re-solving:
   solver-level properties over the warm candidate / starting incumbent, and
   manager-level tests for the plan-cache-hit fast path — including the
   deferral re-entry regression (a deferred job whose effective s_j is bumped
   past its own deadline must still go through the full validated path). *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution
module Dispatch = Sched.Dispatch

(* Proof-complete options: on Gen.tiny instances every solve runs the exact
   B&B to exhaustion, so warm and cold must both prove and land on the same
   objective. *)
let proof_options =
  {
    Cp.Solver.default_options with
    Cp.Solver.exact_task_limit = 200;
    fail_limit = 1_000_000;
    time_limit = 60.;
  }

(* A carried plan given as a task-id table, as the incumbent's start array
   over [inst]'s task index ([min_int] where the table has no entry). *)
let incumbent_of_starts inst carried : Cp.Solver.incumbent =
  Array.map
    (fun (task : T.task) ->
      Option.value (Hashtbl.find_opt carried task.T.task_id) ~default:min_int)
    (Instance.pending_tasks inst)

(* Deterministically corrupt a carried plan: drop some entries (partial
   carry-over), shift others (possibly below est, i.e. stale; possibly
   forward into a capacity or precedence conflict). *)
let corrupt_starts ~salt starts =
  let carried = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id s ->
      match (id + salt) mod 5 with
      | 0 -> ()
      | 1 -> Hashtbl.replace carried id (max 0 (s - 17))
      | 2 -> Hashtbl.replace carried id (s + (3 * (salt mod 13)))
      | _ -> Hashtbl.replace carried id s)
    starts;
  carried

let arb_instance_with_salt =
  QCheck.pair Gen.arb_tiny_instance QCheck.(int_bound 1000)

(* (a) A warm-started solve never returns a worse Σ N_j than a cold solve on
   the same instance and seed.  Under proof-complete options both runs prove
   optimality, so the objectives must be equal — even when the carried plan
   is partial or corrupted. *)
let prop_warm_never_worse_than_cold =
  QCheck.Test.make ~count:75
    ~name:"warm solve never worse than cold (equal under proofs)"
    arb_instance_with_salt (fun (inst, salt) ->
      let cold_sol, cold_stats = Cp.Solver.solve ~options:proof_options inst in
      let carried =
        corrupt_starts ~salt
          (Seed_oracle.table_of inst cold_sol.Solution.starts)
      in
      let warm_sol, warm_stats =
        Cp.Solver.solve ~options:proof_options
          ~warm:(incumbent_of_starts inst carried)
          inst
      in
      QCheck.assume cold_stats.Cp.Solver.proved_optimal;
      QCheck.assume warm_stats.Cp.Solver.proved_optimal;
      Solution.feasibility_errors inst warm_sol = []
      && warm_sol.Solution.late_jobs = cold_sol.Solution.late_jobs)

(* (b) A completed carried-over incumbent always passes the Table-1 oracle,
   no matter how stale or conflicting the carried entries are: warm_candidate
   either repairs the plan into a feasible one or returns None. *)
let prop_warm_candidate_always_feasible =
  QCheck.Test.make ~count:200
    ~name:"warm candidate always passes the Table-1 oracle"
    arb_instance_with_salt (fun (inst, salt) ->
      let base, _ = Cp.Solver.solve ~options:proof_options inst in
      let carried =
        corrupt_starts ~salt (Seed_oracle.table_of inst base.Solution.starts)
      in
      match
        Cp.Solver.warm_candidate (Cp.Solver.prepare inst)
          (incumbent_of_starts inst carried)
      with
      | None -> true
      | Some cand -> Solution.feasibility_errors inst cand = [])

(* (c) The cache-hit fast path fires iff the carried plan (completed around
   the instance) is feasible and already meets the lower bound.  The solver
   exposes the hit as warm_seeded ∧ seed_late ≤ lower_bound ∧ no search. *)
let prop_fast_path_iff_feasible_and_bound_optimal =
  QCheck.Test.make ~count:100
    ~name:"cache-hit fast path fires iff carried plan feasible and \
           bound-optimal"
    arb_instance_with_salt (fun (inst, salt) ->
      let base, _ = Cp.Solver.solve ~options:proof_options inst in
      let carried =
        corrupt_starts ~salt (Seed_oracle.table_of inst base.Solution.starts)
      in
      let inc = incumbent_of_starts inst carried in
      let pass = Cp.Solver.prepare inst in
      let lb = Cp.Solver.late_lower_bound pass in
      let expect_hit =
        match Cp.Solver.warm_candidate pass inc with
        | Some cand -> cand.Solution.late_jobs <= lb
        | None -> false
      in
      let _, stats = Cp.Solver.solve ~options:proof_options ~warm:inc inst in
      let hit =
        stats.Cp.Solver.warm_seeded
        && stats.Cp.Solver.seed_late <= stats.Cp.Solver.lower_bound
        && stats.Cp.Solver.nodes = 0
      in
      hit = expect_hit)

(* --- the seed pipeline against its reference (test/seed_oracle.ml) ------- *)

type seed_case = {
  inst : Instance.t;
  carried : (int, int) Hashtbl.t;
  ordering : Sched.Greedy.order;
  lb : int option;
}

(* Degenerate instances ({!Gen.gen_degenerate_instance}: zero-duration
   tasks, deadlines before est); the carried plan is the base plan with
   entries dropped (missing), pulled back (stale once below the bumped
   est) or pushed forward (overlapping its neighbours). *)
let gen_seed_case =
  let open QCheck.Gen in
  let* base = Gen.gen_degenerate_instance in
  let* now_pct = int_range 0 100 in
  let* crash_maps = int_range 0 2 in
  let* crash_reduces = int_range 0 2 in
  let* salt = int_bound 1000 in
  let* ordering =
    oneofl [ Sched.Greedy.By_job_id; Sched.Greedy.Edf; Sched.Greedy.Least_laxity ]
  in
  let* lb = opt (int_range 0 3) in
  let starts = (Seed_oracle.greedy base).Solution.starts in
  let plan = Seed_oracle.table_of base starts in
  let inst =
    Gen.advance base plan
      ~now:(Gen.plan_span base starts * now_pct / 100)
      ~crash_maps ~crash_reduces
  in
  return { inst; carried = corrupt_starts ~salt plan; ordering; lb }

let print_seed_case c =
  let carried =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.carried []
    |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf "%d@%d" k v)
  in
  Format.asprintf "%a order=%s lb=%s fixed=[%s] carried=[%s]" Instance.pp
    c.inst
    (Sched.Greedy.order_to_string c.ordering)
    (match c.lb with Some b -> string_of_int b | None -> "-")
    (Gen.fixed_to_string c.inst) (String.concat " " carried)

let arb_seed_case = QCheck.make ~print:print_seed_case gen_seed_case

let same_solution (a : Solution.t) (b : Solution.t) =
  a.Solution.late_jobs = b.Solution.late_jobs
  && a.Solution.total_tardiness = b.Solution.total_tardiness
  && a.Solution.starts = b.Solution.starts

(* both sides raise the same way or return the same thing *)
let agree same f g =
  let run h = try Ok (h ()) with e -> Error (Printexc.to_string e) in
  match (run f, run g) with
  | Ok a, Ok b -> same a b
  | Error a, Error b -> a = b
  | _ -> false

let prop_warm_candidate_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"warm candidate = reference (same option, starts, objective)"
    arb_seed_case (fun c ->
      let inc = incumbent_of_starts c.inst c.carried in
      agree (Option.equal same_solution)
        (fun () -> Cp.Solver.warm_candidate (Cp.Solver.prepare c.inst) inc)
        (fun () -> Seed_oracle.warm_candidate c.inst inc))

let prop_starting_incumbent_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"starting incumbent = reference, cold and warm"
    arb_seed_case (fun c ->
      let same (a, wa) (b, wb) = wa = wb && same_solution a b in
      let options =
        { Cp.Solver.default_options with Cp.Solver.ordering = c.ordering }
      in
      List.for_all
        (fun warm ->
          agree same
            (fun () ->
              Cp.Solver.starting_incumbent ~options ?warm ?lb:c.lb
                (Cp.Solver.prepare c.inst))
            (fun () ->
              Seed_oracle.starting_incumbent ~options ?warm ?lb:c.lb c.inst))
        [ None; Some (incumbent_of_starts c.inst c.carried) ])

(* --- the rewritten per-pass routines = their reference ------------------ *)

(* The list scheduler, the warm completion, the seed and the matchmaking
   order were rewritten for speed; [List_reference] keeps them as they were.
   On the seed cases above (frozen tasks, degenerate jobs, crashed
   capacities, partial and stale carried plans), every schedule, the warm
   candidate and the starting incumbent must come out identical: starts,
   late count and tardiness, or the same exception.  The library side
   prepares its passes on one scratch shared by every case, as a session
   does pass after pass, so the working profiles carry over between
   instances of different sizes and capacities. *)

let scratch = Sched.Greedy.scratch ()

let prop_schedules_match_reference =
  QCheck.Test.make ~count:300
    ~name:"list schedules = reference (every order, any sequence)"
    QCheck.(pair arb_seed_case (int_bound 1_000_000))
    (fun (c, salt) ->
      let inst = c.inst in
      let n = Array.length inst.Instance.jobs in
      (* a permutation of the jobs drawn from [salt] *)
      let sequence = Array.init n Fun.id in
      let rng = Random.State.make [| salt |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = sequence.(i) in
        sequence.(i) <- sequence.(j);
        sequence.(j) <- x
      done;
      let pass = Sched.Greedy.prepare ~scratch inst
      and ref_pass = List_reference.Greedy.prepare inst in
      List.for_all
        (fun order ->
          agree same_solution
            (fun () -> Sched.Greedy.schedule ~order pass)
            (fun () -> List_reference.Greedy.schedule ~order ref_pass)
          && agree same_solution
               (fun () -> Sched.Greedy.solve ~order inst)
               (fun () -> List_reference.Greedy.solve ~order inst))
        [ Sched.Greedy.By_job_id; Sched.Greedy.Edf; Sched.Greedy.Least_laxity ]
      && agree same_solution
           (fun () -> Sched.Greedy.schedule_sequence pass sequence)
           (fun () -> List_reference.Greedy.schedule_sequence ref_pass sequence)
      && agree same_solution
           (fun () -> Sched.Greedy.solve_with_sequence inst sequence)
           (fun () -> List_reference.Greedy.solve_with_sequence inst sequence))

let prop_seed_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"bound, warm candidate and seed = reference"
    arb_seed_case (fun c ->
      let inc = incumbent_of_starts c.inst c.carried in
      let options =
        { Cp.Solver.default_options with Cp.Solver.ordering = c.ordering }
      in
      let same (a, wa) (b, wb) = wa = wb && same_solution a b in
      (* one pass serves the bound, the completion and both seeds, as it
         serves a solve's seed check and its seed *)
      let pass = Cp.Solver.prepare ~scratch c.inst in
      Cp.Solver.late_lower_bound pass
      = List_reference.Seed.late_lower_bound c.inst
      && agree (Option.equal same_solution)
           (fun () -> Cp.Solver.warm_candidate pass inc)
           (fun () -> List_reference.Seed.warm_candidate c.inst inc)
      && List.for_all
           (fun warm ->
             agree same
               (fun () ->
                 Cp.Solver.starting_incumbent ~options ?warm ?lb:c.lb pass)
               (fun () ->
                 List_reference.Seed.starting_incumbent ~options ?warm
                   ?lb:c.lb c.inst))
           [ None; Some inc ])

(* Larger instances than the seed cases, so every sort takes its merge
   path (more than 16 jobs, or tasks in a job), with a carried plan built
   from the reference schedule and corrupted. *)
let large_params =
  {
    Gen.default_params with
    Gen.n_jobs = (10, 40);
    n_maps = (1, 24);
    n_reduces = (0, 6);
    cap = (1, 6);
  }

let prop_large_matches_reference =
  QCheck.Test.make ~count:40 ~name:"large instances: seed = reference"
    (QCheck.pair
       (Gen.arb_instance_of ~p:large_params ())
       (QCheck.int_bound 1000))
    (fun (inst, salt) ->
      let plan =
        Seed_oracle.table_of inst
          (List_reference.Greedy.solve inst).Solution.starts
      in
      let inc =
        incumbent_of_starts inst (corrupt_starts ~salt plan)
      in
      let same (a, wa) (b, wb) = wa = wb && same_solution a b in
      let pass = Cp.Solver.prepare ~scratch inst in
      List.for_all
        (fun order ->
          agree same_solution
            (fun () -> Sched.Greedy.solve ~order inst)
            (fun () -> List_reference.Greedy.solve ~order inst))
        [ Sched.Greedy.By_job_id; Sched.Greedy.Edf; Sched.Greedy.Least_laxity ]
      && agree (Option.equal same_solution)
           (fun () -> Cp.Solver.warm_candidate pass inc)
           (fun () -> List_reference.Seed.warm_candidate inst inc)
      && agree same
           (fun () ->
             Cp.Solver.starting_incumbent ~options:Cp.Solver.default_options
               ~warm:inc pass)
           (fun () ->
             List_reference.Seed.starting_incumbent
               ~options:Cp.Solver.default_options ~warm:inc inst))

(* A cluster with some resources down, the seed case's jobs on the
   capacity that is up, running tasks pinned to random slots, and the
   reference EDF schedule's starts: matchmade by one library matchmaker
   reused (and reset) across two such passes, and by a fresh reference
   one, the dispatches and their order must agree, or both must fail the
   same way. *)
let gen_match_case =
  let open QCheck.Gen in
  let* cluster = Gen.gen_cluster in
  let m = Array.length cluster in
  let* down = list_size (int_bound (m - 1)) (int_bound (m - 1)) in
  let* busy = list_size (int_bound 4) (triple bool nat (int_range (-20) 200)) in
  let* c = gen_seed_case in
  return (cluster, List.sort_uniq compare down, busy, c)

let print_match_case (cluster, down, busy, c) =
  Printf.sprintf "%d resources, down [%s], %d busy slots; %s"
    (Array.length cluster)
    (String.concat " " (List.map string_of_int down))
    (List.length busy) (print_seed_case c)

let prop_matchmaking_matches_reference =
  QCheck.Test.make ~count:300 ~name:"matchmaking = reference (resources down)"
    (QCheck.make ~print:print_match_case gen_match_case)
    (fun (cluster, down, busy, c) ->
      let up select =
        Array.fold_left
          (fun acc (r : T.resource) ->
            if List.mem r.T.res_id down then acc else acc + select r)
          0 cluster
      in
      let map_capacity = up (fun r -> r.T.map_capacity)
      and reduce_capacity = up (fun r -> r.T.reduce_capacity) in
      let inst =
        Instance.make ~now:c.inst.Instance.now ~map_capacity ~reduce_capacity
          c.inst.Instance.jobs
      in
      let tasks = Instance.pending_tasks inst in
      let starts =
        (List_reference.Greedy.solve inst).Solution.starts
      in
      (* the same calls on the library's matchmaker and the reference's *)
      let module Run (M : sig
        type t

        val map_slot_count : t -> int
        val reduce_slot_count : t -> int
        val disable_resource : t -> resource_id:int -> unit
        val occupy : t -> kind:T.task_kind -> slot:int -> until:int -> unit

        val assign_all :
          ?on_assign:(int -> Dispatch.t -> unit) ->
          t ->
          starts:int array ->
          tasks:T.task array ->
          Dispatch.t list
      end) =
      struct
        let pass mm =
          List.iter
            (fun resource_id -> M.disable_resource mm ~resource_id)
            down;
          List.iter
            (fun (is_map, slot, until) ->
              let kind, count =
                if is_map then (T.Map_task, M.map_slot_count mm)
                else (T.Reduce_task, M.reduce_slot_count mm)
              in
              M.occupy mm ~kind ~slot:(slot mod count) ~until)
            busy;
          let seen = ref [] in
          let ds =
            M.assign_all
              ~on_assign:(fun k d -> seen := (k, d) :: !seen)
              mm ~starts ~tasks
          in
          (ds, List.rev !seen)
      end in
      let module New = Run (Mrcp.Matchmaker) in
      let module Ref = Run (List_reference.Matchmaker) in
      let reused = Mrcp.Matchmaker.create ~cluster in
      (* a first pass dirties it: slots taken, last starts advanced *)
      ignore (try Some (New.pass reused) with _ -> None);
      map_capacity = 0 || reduce_capacity = 0
      || agree ( = )
           (fun () ->
             Mrcp.Matchmaker.reset reused;
             New.pass reused)
           (fun () -> Ref.pass (List_reference.Matchmaker.create ~cluster)))

(* Two maps still running from before a crash now share a pool of one
   slot.  The carried plan's own start is clear of both, yet the candidate
   must be rejected: the frozen tasks alone break the capacity. *)
let test_frozen_overload_rejected () =
  Gen.reset_tasks ();
  let a = Gen.mk_job ~id:0 ~deadline:1000 ~maps:[ 100 ] ~reduces:[] () in
  let b = Gen.mk_job ~id:1 ~deadline:1000 ~maps:[ 100 ] ~reduces:[] () in
  let c = Gen.mk_job ~id:2 ~deadline:1000 ~maps:[ 10 ] ~reduces:[] () in
  let running (j : T.job) =
    {
      Instance.job = j;
      est = 50;
      pending_maps = [||];
      pending_reduces = [||];
      fixed_maps = [| { Instance.task = j.T.map_tasks.(0); start = 0 } |];
      fixed_reduces = [||];
      frozen_lfmt = 100;
      frozen_completion = 100;
    }
  in
  let waiting =
    {
      (running c) with
      Instance.pending_maps = c.T.map_tasks;
      fixed_maps = [||];
      frozen_lfmt = 0;
      frozen_completion = 0;
    }
  in
  let inst ~map_capacity =
    Instance.make ~now:50 ~map_capacity ~reduce_capacity:1
      [| running a; running b; waiting |]
  in
  (* the waiting job's one map is the only pending task *)
  let inc = [| 200 |] in
  Alcotest.(check bool) "accepted before the crash" true
    (Cp.Solver.warm_candidate (Cp.Solver.prepare (inst ~map_capacity:2)) inc
    <> None);
  Alcotest.(check bool) "rejected after it" true
    (Cp.Solver.warm_candidate (Cp.Solver.prepare (inst ~map_capacity:1)) inc
    = None);
  Alcotest.(check bool) "as the reference does" true
    (Seed_oracle.warm_candidate (inst ~map_capacity:1) inc = None)

(* --- manager-level cache-hit plumbing ----------------------------------- *)

let cluster2x2 = T.uniform_cluster ~m:2 ~map_capacity:2 ~reduce_capacity:2

let base_config =
  {
    Mrcp.Manager.default_config with
    Mrcp.Manager.validate = true;
  }

let last_stats mgr =
  match Mrcp.Manager.last_solver_stats mgr with
  | Some s -> s
  | None -> Alcotest.fail "manager has no solver stats"

(* An arrival that does not disturb the carried plan: the fast path fires,
   the hit is counted, and no search runs. *)
let test_cache_hit_on_undisturbed_plan () =
  Gen.reset_tasks ();
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 base_config in
  let j0 =
    Gen.mk_job ~id:0 ~est:5_000 ~deadline:100_000 ~maps:[ 1000; 1000 ]
      ~reduces:[ 500 ] ()
  in
  Mrcp.Manager.submit mgr ~now:0 j0;
  Mrcp.Manager.invoke mgr ~now:0;
  Alcotest.(check int) "cold solve, no hit" 0 (Mrcp.Manager.cache_hit_count mgr);
  let j1 =
    Gen.mk_job ~id:1 ~arrival:100 ~deadline:100_000 ~maps:[ 1000 ] ~reduces:[]
      ()
  in
  Mrcp.Manager.submit mgr ~now:100 j1;
  Mrcp.Manager.invoke mgr ~now:100;
  Alcotest.(check int) "two passes" 2 (Mrcp.Manager.solve_count mgr);
  Alcotest.(check int) "plan cache hit" 1 (Mrcp.Manager.cache_hit_count mgr);
  let s = last_stats mgr in
  Alcotest.(check bool) "warm seeded" true s.Cp.Solver.warm_seeded;
  Alcotest.(check int) "no search ran" 0 s.Cp.Solver.nodes;
  Alcotest.(check bool) "bound met" true
    (s.Cp.Solver.seed_late <= s.Cp.Solver.lower_bound)

(* A fault resets the session's store and certificate but not the plan it
   carries: after a resource loss that takes no running task and leaves
   enough slots, and after the rejoin, each forced pass is warm-seeded from
   the surviving plan and is a plan cache hit. *)
let test_fault_keeps_warm_plan () =
  Gen.reset_tasks ();
  let mgr =
    Mrcp.Manager.create ~cluster:cluster2x2 base_config
  in
  let j0 =
    Gen.mk_job ~id:0 ~est:5_000 ~deadline:100_000 ~maps:[ 1000; 1000 ]
      ~reduces:[ 500 ] ()
  in
  Mrcp.Manager.submit mgr ~now:0 j0;
  Mrcp.Manager.invoke mgr ~now:0;
  let forced_pass ~now ~resets =
    Alcotest.(check int) "fault reset" resets (Mrcp.Manager.fault_resets mgr);
    Mrcp.Manager.invoke mgr ~now;
    Alcotest.(check int) "re-planned" (resets + 1)
      (Mrcp.Manager.solve_count mgr);
    let s = last_stats mgr in
    Alcotest.(check bool) "warm seeded" true s.Cp.Solver.warm_seeded;
    Alcotest.(check string) "cache hit" "cache_hit"
      (Obs.Solve_stats.stop_reason_to_string s.Cp.Solver.stop_reason);
    Alcotest.(check int) "hits so far" resets
      (Mrcp.Manager.cache_hit_count mgr)
  in
  Mrcp.Manager.resource_lost mgr ~now:100 ~resource_id:1 ~lost:[];
  forced_pass ~now:100 ~resets:1;
  Mrcp.Manager.resource_rejoined mgr ~now:200 ~resource_id:1;
  forced_pass ~now:200 ~resets:2

(* A tight arrival that only fits if the carried job is pushed back: the
   carried plan completed around it is feasible but suboptimal, so the fast
   path must NOT fire and the re-solve must find the 0-late plan. *)
let test_no_hit_when_replanning_saves_a_job () =
  Gen.reset_tasks ();
  let cluster = T.uniform_cluster ~m:1 ~map_capacity:1 ~reduce_capacity:1 in
  let mgr = Mrcp.Manager.create ~cluster base_config in
  let j0 =
    Gen.mk_job ~id:0 ~est:2_000 ~deadline:50_000 ~maps:[ 10_000 ] ~reduces:[]
      ()
  in
  Mrcp.Manager.submit mgr ~now:0 j0;
  Mrcp.Manager.invoke mgr ~now:0;
  (* carried: j0's map at [2000,12000).  j1 (map 3000, deadline 3200) cannot
     fit in the [100,2000) gap, so the carried completion is late for j1
     while running j1 first saves both. *)
  let j1 =
    Gen.mk_job ~id:1 ~arrival:100 ~deadline:3_200 ~maps:[ 3_000 ] ~reduces:[]
      ()
  in
  Mrcp.Manager.submit mgr ~now:100 j1;
  Mrcp.Manager.invoke mgr ~now:100;
  Alcotest.(check int) "no cache hit" 0 (Mrcp.Manager.cache_hit_count mgr);
  let plan = Mrcp.Manager.plan mgr in
  let start_of job_id =
    match
      List.find_opt
        (fun (d : Dispatch.t) -> d.Dispatch.task.T.job_id = job_id)
        plan
    with
    | Some d -> d.Dispatch.start
    | None -> Alcotest.fail (Printf.sprintf "job %d not in plan" job_id)
  in
  Alcotest.(check bool) "j1 replanned on time" true
    (start_of 1 + 3_000 <= 3_200);
  Alcotest.(check bool) "j0 pushed behind j1" true (start_of 0 >= 3_100 - 100)

(* An open stream through the always-warm manager, under full validation:
   every job completes, and every pass, warm-seeded or a plan cache hit,
   proves its objective optimal, so its Σ N_j equals what a cold re-solve
   of the same instance proves (warm-starting is an overhead optimization,
   not a policy change). *)
let test_stream_warm_equals_cold_objective () =
  let cluster = T.uniform_cluster ~m:2 ~map_capacity:2 ~reduce_capacity:2 in
  let jobs () =
    Gen.reset_tasks ();
    List.init 10 (fun i ->
        Gen.mk_job ~id:i ~arrival:(i * 2000)
          ~deadline:((i * 2000) + 60_000)
          ~maps:[ 3000; 4000 ] ~reduces:[ 2000 ] ())
  in
  let mgr = Mrcp.Manager.create ~cluster base_config in
  let passes = ref [] in
  let driver = Opensim.Driver.of_mrcp mgr in
  let react ~now =
    let solves = Mrcp.Manager.solve_count mgr in
    let reaction = driver.Opensim.Driver.react ~now in
    if Mrcp.Manager.solve_count mgr > solves then
      passes := last_stats mgr :: !passes;
    reaction
  in
  let r =
    Opensim.Simulator.run ~validate:true
      ~driver:{ driver with Opensim.Driver.react }
      ~jobs:(jobs ()) ()
  in
  Alcotest.(check int) "all jobs complete" 10 r.Opensim.Simulator.jobs_total;
  Alcotest.(check bool) "some pass warm-seeded" true
    (List.exists (fun st -> st.Cp.Solver.warm_seeded) !passes);
  List.iter
    (fun st ->
      Alcotest.(check bool) "pass proved optimal" true
        st.Cp.Solver.proved_optimal)
    !passes

(* --- deferral re-entry regression ---------------------------------------- *)

(* A deferred job re-entering via next_wake goes through the same validated
   path as any other arrival — including when the clock has already passed
   its deadline, so classify bumps its effective s_j to now > d_j.  The plan
   validator now also checks every dispatch against that bumped earliest
   start, which previously went unchecked for re-entering deferred jobs. *)
let test_deferred_reentry_past_deadline_validated () =
  Gen.reset_tasks ();
  let config = { base_config with Mrcp.Manager.deferral_window = Some 1_000 } in
  let mgr = Mrcp.Manager.create ~cluster:cluster2x2 config in
  let job =
    Gen.mk_job ~id:0 ~est:50_000 ~deadline:60_000 ~maps:[ 1_000 ] ~reduces:[]
      ()
  in
  Mrcp.Manager.submit mgr ~now:0 job;
  Mrcp.Manager.invoke mgr ~now:0;
  Alcotest.(check int) "deferred, not solved" 0 (Mrcp.Manager.solve_count mgr);
  Alcotest.(check (option int)) "wake armed at s_j - window" (Some 49_000)
    (Mrcp.Manager.next_wake mgr);
  (* the next invocation only lands at 70s — past d_j = 60s *)
  Mrcp.Manager.invoke mgr ~now:70_000;
  Alcotest.(check int) "scheduled on re-entry" 1 (Mrcp.Manager.solve_count mgr);
  let plan = Mrcp.Manager.plan mgr in
  Alcotest.(check int) "map planned" 1 (List.length plan);
  List.iter
    (fun (d : Dispatch.t) ->
      Alcotest.(check bool) "start respects the bumped s_j" true
        (d.Dispatch.start >= 70_000))
    plan;
  Alcotest.(check int) "provably late" 1 (last_stats mgr).Cp.Solver.lower_bound

(* One validated manager pass over a degenerate instance: every task gets a
   dispatch at or after the clock. The generator makes no input the manager
   should reject, so any exception fails. *)
let prop_degenerate_manager_pass =
  QCheck.Test.make ~count:100 ~name:"degenerate inputs: one manager pass"
    (QCheck.make ~print:(Format.asprintf "%a" Instance.pp)
       Gen.gen_degenerate_instance) (fun inst ->
      let now = inst.Instance.now in
      let cluster =
        T.uniform_cluster ~m:1 ~map_capacity:inst.Instance.map_capacity
          ~reduce_capacity:inst.Instance.reduce_capacity
      in
      (* validity does not depend on how far the search gets *)
      let config =
        {
          base_config with
          Mrcp.Manager.solver =
            { Cp.Solver.default_options with Cp.Solver.time_limit = 0.02 };
        }
      in
      match
        let mgr = Mrcp.Manager.create ~cluster config in
        Array.iter
          (fun (pj : Instance.pending_job) ->
            Mrcp.Manager.submit mgr ~now pj.Instance.job)
          inst.Instance.jobs;
        Mrcp.Manager.invoke mgr ~now;
        Mrcp.Manager.plan mgr
      with
      | plan ->
          List.length plan = Instance.pending_task_count inst
          && List.for_all (fun (d : Dispatch.t) -> d.Dispatch.start >= now) plan)

let () =
  Alcotest.run "warm_start"
    [
      ( "manager",
        [
          Alcotest.test_case "cache hit on undisturbed plan" `Quick
            test_cache_hit_on_undisturbed_plan;
          Alcotest.test_case "no hit when replanning saves a job" `Quick
            test_no_hit_when_replanning_saves_a_job;
          Alcotest.test_case "stream: warm objective equals cold" `Quick
            test_stream_warm_equals_cold_objective;
          Alcotest.test_case "deferred re-entry past deadline validated"
            `Quick test_deferred_reentry_past_deadline_validated;
          QCheck_alcotest.to_alcotest prop_degenerate_manager_pass;
          Alcotest.test_case "fault keeps the warm plan" `Quick
            test_fault_keeps_warm_plan;
        ] );
      ( "oracle",
        Alcotest.test_case "frozen overload rejects the candidate" `Quick
          test_frozen_overload_rejected
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_warm_candidate_matches_reference;
               prop_starting_incumbent_matches_reference;
             ] );
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_schedules_match_reference;
            prop_seed_matches_reference;
            prop_large_matches_reference;
            prop_matchmaking_matches_reference;
          ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_warm_never_worse_than_cold;
            prop_warm_candidate_always_feasible;
            prop_fast_path_iff_feasible_and_bound_optimal;
          ] );
    ]
