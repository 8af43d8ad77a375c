(* Tests for the CP solver: store/propagator unit tests, model correctness on
   hand-built instances with known optima, and qcheck properties checking
   that every returned solution passes the Table-1 feasibility oracle and
   never does worse than greedy. *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution

(* Builders are shared across the test binaries (see gen.ml). *)
let mk_task = Gen.mk_task
let mk_job = Gen.mk_job
let instance = Gen.instance

let solve ?options inst = Cp.Solver.solve ?options inst

let check_feasible inst sol =
  match Solution.feasibility_errors inst sol with
  | [] -> ()
  | errs -> Alcotest.failf "infeasible solution: %s" (String.concat "; " errs)

(* --- store ----------------------------------------------------------- *)

let test_store_bounds () =
  let s = Cp.Store.create () in
  let v = Cp.Store.new_var s ~min:0 ~max:10 in
  Alcotest.(check int) "min" 0 (Cp.Store.min_of s v);
  Alcotest.(check int) "max" 10 (Cp.Store.max_of s v);
  Cp.Store.set_min s v 3;
  Cp.Store.set_max s v 7;
  Alcotest.(check int) "min'" 3 (Cp.Store.min_of s v);
  Alcotest.(check int) "max'" 7 (Cp.Store.max_of s v);
  Alcotest.check_raises "crossing fails"
    (Cp.Store.Fail "set_min: new min above max")
    (fun () -> Cp.Store.set_min s v 8)

let test_store_backtrack () =
  let s = Cp.Store.create () in
  let v = Cp.Store.new_var s ~min:0 ~max:10 in
  Cp.Store.push_level s;
  Cp.Store.set_min s v 5;
  Cp.Store.push_level s;
  Cp.Store.fix s v 6;
  Alcotest.(check bool) "fixed" true (Cp.Store.is_fixed s v);
  Cp.Store.backtrack s;
  Alcotest.(check int) "min restored to level1" 5 (Cp.Store.min_of s v);
  Alcotest.(check int) "max restored" 10 (Cp.Store.max_of s v);
  Cp.Store.backtrack s;
  Alcotest.(check int) "min restored to root" 0 (Cp.Store.min_of s v)

(* A root write takes no trail entry (no backtrack could undo it), and
   levels pushed after it restore exactly what they changed, down to the
   root state the root writes left. *)
let test_store_root_untrailed () =
  let s = Cp.Store.create () in
  let v = Cp.Store.new_var s ~min:0 ~max:10 in
  let w = Cp.Store.new_var s ~min:0 ~max:10 in
  Cp.Store.set_min s v 2;
  Cp.Store.set_max s v 9;
  Cp.Store.fix s w 4;
  Alcotest.(check int) "no root entries" 0 (Cp.Store.trail_length s);
  Cp.Store.push_level s;
  Cp.Store.set_min s v 5;
  Cp.Store.set_max s v 8;
  Alcotest.(check int) "entries above the root" 2 (Cp.Store.trail_length s);
  Cp.Store.push_level s;
  Cp.Store.fix s v 6;
  Cp.Store.backtrack s;
  Alcotest.(check (pair int int)) "level 1 restored" (5, 8)
    (Cp.Store.min_of s v, Cp.Store.max_of s v);
  Cp.Store.backtrack s;
  Alcotest.(check (pair int int)) "root writes kept" (2, 9)
    (Cp.Store.min_of s v, Cp.Store.max_of s v);
  Alcotest.(check (pair int int)) "root fix kept" (4, 4)
    (Cp.Store.min_of s w, Cp.Store.max_of s w);
  Alcotest.(check int) "trail empty again" 0 (Cp.Store.trail_length s);
  (* a root write between searches, then a search level on top *)
  Cp.Store.set_min s v 3;
  Cp.Store.push_level s;
  Cp.Store.set_min s v 7;
  Cp.Store.backtrack_to s 0;
  Alcotest.(check int) "second root write kept" 3 (Cp.Store.min_of s v);
  Alcotest.(check int) "no entries left" 0 (Cp.Store.trail_length s)

(* [unwatch] removes every edge of a propagator from both of a variable's
   event lists, and only its own: the variable's other watchers still wake. *)
let test_unwatch_both_events () =
  let s = Cp.Store.create () in
  let v = Cp.Store.new_var s ~min:0 ~max:10 in
  let gone_runs = ref 0 and kept_runs = ref 0 in
  let gone = Cp.Store.register s (fun _ -> incr gone_runs) in
  let kept = Cp.Store.register s (fun _ -> incr kept_runs) in
  Cp.Store.watch s v gone;
  Cp.Store.watch s v kept;
  Cp.Store.watch_min s v gone;
  Cp.Store.unwatch s v gone;
  Cp.Store.set_min s v 2;
  Cp.Store.propagate s;
  Cp.Store.set_max s v 8;
  Cp.Store.propagate s;
  Alcotest.(check int) "unwatched propagator never runs" 0 !gone_runs;
  Alcotest.(check int) "other watcher wakes on both events" 2 !kept_runs

let test_propagator_precedence () =
  let s = Cp.Store.create () in
  let x = Cp.Store.new_var s ~min:0 ~max:100 in
  let y = Cp.Store.new_var s ~min:0 ~max:100 in
  Cp.Propagators.precedence s ~before:x ~duration:10 ~after:y;
  Cp.Store.propagate s;
  Alcotest.(check int) "y pushed" 10 (Cp.Store.min_of s y);
  Alcotest.(check int) "x capped" 90 (Cp.Store.max_of s x);
  Cp.Store.set_min s x 20;
  Cp.Store.propagate s;
  Alcotest.(check int) "y follows" 30 (Cp.Store.min_of s y)

let test_propagator_max () =
  let s = Cp.Store.create () in
  let a = Cp.Store.new_var s ~min:0 ~max:10 in
  let b = Cp.Store.new_var s ~min:5 ~max:20 in
  let m = Cp.Store.new_var s ~min:0 ~max:100 in
  Cp.Propagators.max_of s ~result:m ~vars:[| a; b |] ~offsets:[| 2; 0 |]
    ~floor:3;
  Cp.Store.propagate s;
  Alcotest.(check int) "m min = max(3, 0+2, 5)" 5 (Cp.Store.min_of s m);
  Alcotest.(check int) "m max = max(3, 12, 20)" 20 (Cp.Store.max_of s m);
  Cp.Store.set_max s m 8;
  Cp.Store.propagate s;
  Alcotest.(check int) "a capped to 6" 6 (Cp.Store.max_of s a);
  Alcotest.(check int) "b capped to 8" 8 (Cp.Store.max_of s b)

let test_propagator_cumulative_overload () =
  let s = Cp.Store.create () in
  (* two unit-demand tasks of length 10 fixed at t=0 under capacity 1 *)
  let x = Cp.Store.new_var s ~min:0 ~max:0 in
  let y = Cp.Store.new_var s ~min:0 ~max:0 in
  Cp.Propagators.capacity s
    ~tasks:
      [|
        { Cp.Propagators.start = x; duration = 10; demand = 1 };
        { Cp.Propagators.start = y; duration = 10; demand = 1 };
      |]
    ~fixed:[||] ~capacity:1;
  Alcotest.check_raises "overload detected"
    (Cp.Store.Fail "cumulative overload") (fun () -> Cp.Store.propagate s)

let test_propagator_cumulative_pushes () =
  let s = Cp.Store.create () in
  (* a fixed task occupies [0,10) at demand 1, capacity 1: a second task of
     duration 5 must be pushed to start >= 10 *)
  let y = Cp.Store.new_var s ~min:0 ~max:100 in
  Cp.Propagators.capacity s
    ~tasks:[| { Cp.Propagators.start = y; duration = 5; demand = 1 } |]
    ~fixed:[| (0, 10, 1) |] ~capacity:1;
  Cp.Store.propagate s;
  Alcotest.(check int) "pushed past frozen task" 10 (Cp.Store.min_of s y)

(* --- solver on known instances --------------------------------------- *)

(* One job, plenty of room: everything starts asap, on time. *)
let test_single_job_on_time () =
  let job = mk_job ~id:0 ~deadline:100_000 ~maps:[ 10; 20 ] ~reduces:[ 5 ] () in
  let inst = instance [ job ] in
  let sol, stats = solve inst in
  check_feasible inst sol;
  Alcotest.(check int) "no late jobs" 0 sol.Solution.late_jobs;
  Alcotest.(check bool) "optimal" true stats.Cp.Solver.proved_optimal;
  (* maps start at est=0, reduce after the longest map *)
  let reduce = job.T.reduce_tasks.(0) in
  Alcotest.(check int) "reduce after LFMT" 20
    (Solution.start_of inst sol ~task_id:reduce.T.task_id)

(* A job that cannot make its deadline is late in every schedule; the lower
   bound detects it and the seed is proved optimal without search. *)
let test_doomed_job () =
  let job = mk_job ~id:0 ~deadline:5 ~maps:[ 10 ] ~reduces:[ 10 ] () in
  let inst = instance [ job ] in
  let sol, stats = solve inst in
  check_feasible inst sol;
  Alcotest.(check int) "one late job" 1 sol.Solution.late_jobs;
  Alcotest.(check int) "lower bound saw it" 1 stats.Cp.Solver.lower_bound;
  Alcotest.(check bool) "optimal" true stats.Cp.Solver.proved_optimal

(* EDF greedy fails here but CP succeeds: two unit-capacity-slot jobs where
   scheduling the later-deadline job first is required.  Job A (deadline 30)
   has a long map; job B (deadline 21) arrives with est 1.  On one map slot:
   EDF puts B first (deadline 21 < 30) ... both fit; make it adversarial:
   A: map of 10 then reduce of 10, deadline 20 (tight, laxity 0, needs map
   slot at 0).  B: map of 10, deadline 21, est 1.  One map slot, one reduce
   slot.  A must run its map at [0,10) and reduce [10,20); B's map runs
   [10,20) finishing at 20 <= 21?  EDF order: A (d=20) first, so greedy
   already solves it; order B first and B occupies [1,11), pushing A's map
   to 11, reduce to 21 > 20: late.  By-job-id ordering with B as job 0
   reproduces exactly that, so this also checks that the solver recovers
   from a bad seed via search. *)
let test_cp_beats_bad_seed () =
  let b = mk_job ~id:0 ~est:1 ~deadline:21_000 ~maps:[ 10_000 ] ~reduces:[] () in
  let a =
    mk_job ~id:1 ~deadline:20_000 ~maps:[ 10_000 ] ~reduces:[ 10_000 ] ()
  in
  let inst = instance ~map_cap:1 ~reduce_cap:1 [ b; a ] in
  (* Greedy in by-job-id order is late for A. *)
  let greedy = Sched.Greedy.solve ~order:Sched.Greedy.By_job_id inst in
  Alcotest.(check int) "greedy by-id is late" 1 greedy.Solution.late_jobs;
  (* Force the solver to seed with the bad ordering (no EDF rescue): the
     solver still tries all three orderings for its seed, which here finds
     the optimum via EDF — so instead verify the full result is 0-late and
     feasible, proving the model/search path agrees. *)
  let sol, stats = solve inst in
  check_feasible inst sol;
  Alcotest.(check int) "no late jobs" 0 sol.Solution.late_jobs;
  Alcotest.(check bool) "optimal" true stats.Cp.Solver.proved_optimal

(* A case where no greedy ordering is optimal, forcing actual tree search:
   three jobs on one map slot.  J0: map 10, deadline 30, est 0.
   J1: map 10, deadline 20, est 0.  J2: map 10, deadline 10, est 0.
   Any order that is not J2, J1, J0 has >= 1 late job; EDF finds it.  To
   defeat EDF, give J2 the largest deadline but an est that only works
   last... Construct instead with interacting est gaps:
   J0: est 0, map 10, deadline 40.
   J1: est 0, map 10, deadline 21.
   J2: est 11, map 10, deadline 22.
   EDF order: J1 (21), J2 (22), J0 (40): J1 [0,10), J2 [11,21)... 21<=22 ok,
   J0 earliest fit: gap [10,11) too small -> [21,31): 31<=40 ok: EDF wins
   again.  Try to construct a genuinely greedy-defeating case:
   one map slot; J0: est 0, d 20, map 10. J1: est 0, d 20, map 10.
   Only one of them can win: optimum = 1 late.  Seed also finds 1 late; the
   solver must PROVE optimality (lower bound is 0, so tree search must
   exhaust).  This tests exact B&B termination and correctness. *)
let test_exact_proof_of_suboptimum () =
  let j0 = mk_job ~id:0 ~deadline:15 ~maps:[ 10 ] ~reduces:[] () in
  let j1 = mk_job ~id:1 ~deadline:15 ~maps:[ 10 ] ~reduces:[] () in
  let inst = instance ~map_cap:1 ~reduce_cap:1 [ j0; j1 ] in
  let sol, stats = solve inst in
  check_feasible inst sol;
  Alcotest.(check int) "exactly one late" 1 sol.Solution.late_jobs;
  Alcotest.(check bool) "proved optimal by search" true
    stats.Cp.Solver.proved_optimal;
  (* either the tree was explored or root propagation already refuted the
     0-late hypothesis — both count as the exact path having run *)
  Alcotest.(check bool) "search actually ran" true
    (stats.Cp.Solver.nodes + stats.Cp.Solver.failures > 0)

(* Interleaving two jobs exploits the map/reduce phase overlap: with one map
   slot and one reduce slot, two jobs of (map 10, reduce 10) can finish at
   30 by pipelining; a non-pipelined schedule takes 40.  Deadlines at 30 and
   31 force the pipeline: greedy EDF produces exactly this, and CP must
   agree that 0 late is achievable. *)
let test_pipeline_overlap () =
  let j0 = mk_job ~id:0 ~deadline:20 ~maps:[ 10 ] ~reduces:[ 10 ] () in
  let j1 = mk_job ~id:1 ~deadline:30 ~maps:[ 10 ] ~reduces:[ 10 ] () in
  let inst = instance ~map_cap:1 ~reduce_cap:1 [ j0; j1 ] in
  let sol, stats = solve inst in
  check_feasible inst sol;
  Alcotest.(check int) "pipelined, none late" 0 sol.Solution.late_jobs;
  Alcotest.(check bool) "optimal" true stats.Cp.Solver.proved_optimal

(* Frozen (isPrevScheduled) tasks: a running task occupies the only map slot
   until t=50; a new job with deadline 70 still fits (map 10 at 50, done 60);
   with deadline 55 it is provably late. *)
let test_frozen_tasks_respected () =
  let running_task = mk_task ~id:1 ~job:99 ~kind:T.Map_task ~e:50 in
  let make_instance deadline =
    let j = mk_job ~id:0 ~deadline ~maps:[ 10 ] ~reduces:[] () in
    let base =
      instance ~map_cap:1 ~reduce_cap:1 [ j ]
    in
    let frozen_job =
      {
        Instance.job =
          {
            T.id = 99;
            arrival = 0;
            earliest_start = 0;
            deadline = max_int;
            map_tasks = [| running_task |];
            reduce_tasks = [||];
          };
        est = 0;
        pending_maps = [||];
        pending_reduces = [||];
        fixed_maps = [| { Instance.task = running_task; start = 0 } |];
        fixed_reduces = [||];
        frozen_lfmt = 50;
        frozen_completion = 50;
      }
    in
    Instance.with_jobs base (Array.append base.Instance.jobs [| frozen_job |])
  in
  let inst_ok = make_instance 70 in
  let sol, _ = solve inst_ok in
  check_feasible inst_ok sol;
  Alcotest.(check int) "fits after the running task" 0 sol.Solution.late_jobs;
  let j0_task = inst_ok.Instance.jobs.(0).Instance.pending_maps.(0) in
  Alcotest.(check bool) "starts at or after 50" true
    (Solution.start_of inst_ok sol ~task_id:j0_task.T.task_id >= 50);
  let inst_late = make_instance 55 in
  let sol2, stats2 = solve inst_late in
  check_feasible inst_late sol2;
  Alcotest.(check int) "provably late" 1 sol2.Solution.late_jobs;
  Alcotest.(check bool) "proved" true stats2.Cp.Solver.proved_optimal

(* A doomed job must not push a savable one over its deadline: the seed or
   search must serve job 1 first even though job 0 has the earlier deadline. *)
let test_doomed_job_sacrificed () =
  (* one map slot; job 0 needs 100 by t=50 (hopeless), job 1 needs 10 by
     t=15.  EDF runs job 0 first and ruins job 1; optimal = 1 late. *)
  let doomed = mk_job ~id:0 ~deadline:50 ~maps:[ 100 ] ~reduces:[] () in
  let savable = mk_job ~id:1 ~deadline:15 ~maps:[ 10 ] ~reduces:[] () in
  let inst = instance ~map_cap:1 ~reduce_cap:1 [ doomed; savable ] in
  let sol, stats = solve inst in
  check_feasible inst sol;
  Alcotest.(check int) "only the doomed job is late" 1 sol.Solution.late_jobs;
  Alcotest.(check bool) "optimal" true stats.Cp.Solver.proved_optimal;
  let s1 = Solution.start_of inst sol ~task_id:savable.T.map_tasks.(0).T.task_id in
  Alcotest.(check bool) "savable job runs first" true (s1 + 10 <= 15)

(* Search limits: with a zero-ish budget the solver still returns a feasible
   seed and reports non-optimality when the seed exceeds the lower bound. *)
let test_budget_zero_returns_seed () =
  let jobs =
    List.init 6 (fun i ->
        mk_job ~id:i ~deadline:(25 + i) ~maps:[ 10; 10 ] ~reduces:[ 5 ] ())
  in
  let inst = instance ~map_cap:1 ~reduce_cap:1 jobs in
  let options =
    {
      Cp.Solver.default_options with
      Cp.Solver.exact_task_limit = 0;
      time_limit = 0.;
    }
  in
  let sol, stats = solve ~options inst in
  check_feasible inst sol;
  Alcotest.(check int) "seed returned unchanged" stats.Cp.Solver.seed_late
    sol.Solution.late_jobs;
  Alcotest.(check int) "no search nodes" 0 stats.Cp.Solver.nodes

(* Determinism: the same instance and options yield the same result.  The
   fail limit stops the search, well before the generous wall limit. *)
let test_solver_deterministic () =
  let jobs =
    List.init 8 (fun i ->
        mk_job ~id:i ~deadline:(30 + (4 * i)) ~maps:[ 9; 7 ] ~reduces:[ 5 ] ())
  in
  let make () = instance ~map_cap:2 ~reduce_cap:1 jobs in
  let options =
    {
      Cp.Solver.default_options with
      Cp.Solver.fail_limit = 50;
      time_limit = 10.;
    }
  in
  let sol1, st1 = solve ~options (make ()) in
  let sol2, st2 = solve ~options (make ()) in
  Alcotest.(check string) "the fail limit binds" "fail_limit"
    (Obs.Solve_stats.stop_reason_to_string st1.Cp.Solver.stop_reason);
  Alcotest.(check (array int)) "same starts" sol1.Solution.starts
    sol2.Solution.starts;
  Alcotest.(check int) "same nodes" st1.Cp.Solver.nodes st2.Cp.Solver.nodes;
  Alcotest.(check int) "same failures" st1.Cp.Solver.failures
    st2.Cp.Solver.failures

(* Search node/fail limits are honoured. *)
let test_search_limits_honoured () =
  let jobs =
    List.init 10 (fun i ->
        mk_job ~id:i ~deadline:(28 + i) ~maps:[ 10; 10 ] ~reduces:[] ())
  in
  let inst = instance ~map_cap:1 ~reduce_cap:1 jobs in
  let model = Cp.Model.build inst ~horizon:(Cp.Model.default_horizon inst) in
  model.Cp.Model.bound := 10;
  let outcome =
    Cp.Search.run model
      { Cp.Search.no_limits with Cp.Search.node_limit = 25 }
  in
  Alcotest.(check bool) "node limit" true (outcome.Cp.Search.nodes <= 25);
  Alcotest.(check bool) "not proved under limits" false
    outcome.Cp.Search.proved_optimal

(* --- qcheck properties ------------------------------------------------ *)

let arb_instance = Gen.arb_instance

let prop_solution_feasible =
  QCheck.Test.make ~count:150 ~name:"cp solution always feasible" arb_instance
    (fun inst ->
      let sol, _ = solve inst in
      Solution.feasibility_errors inst sol = [])

let prop_no_worse_than_greedy =
  QCheck.Test.make ~count:150 ~name:"cp never worse than any greedy order"
    arb_instance (fun inst ->
      let sol, _ = solve inst in
      List.for_all
        (fun order ->
          let g = Sched.Greedy.solve ~order inst in
          sol.Solution.late_jobs <= g.Solution.late_jobs)
        [ Sched.Greedy.By_job_id; Sched.Greedy.Edf; Sched.Greedy.Least_laxity ])

let prop_objective_at_least_lower_bound =
  QCheck.Test.make ~count:150 ~name:"late count >= lower bound" arb_instance
    (fun inst ->
      let sol, stats = solve inst in
      sol.Solution.late_jobs >= stats.Cp.Solver.lower_bound)

let prop_optimal_matches_bruteforce =
  (* On tiny instances, compare against brute-force over all job sequences
     decoded greedily; CP should never be worse than the best sequence. *)
  let gen_tiny =
    let open QCheck.Gen in
    let gen_job id =
      let* maps = list_repeat 1 (int_range 1 20) in
      let* reduces = list_repeat 1 (int_range 1 20) in
      let* slack = int_range 0 40 in
      let total = List.fold_left ( + ) 0 maps + List.fold_left ( + ) 0 reduces in
      return (mk_job ~id ~deadline:(total + slack) ~maps ~reduces ())
    in
    let* n = int_range 2 4 in
    let* jobs = flatten_l (List.init n gen_job) in
    return (instance ~map_cap:1 ~reduce_cap:1 jobs)
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) l in
            List.map (fun p -> x :: p) (permutations rest))
          l
  in
  QCheck.Test.make ~count:60
    ~name:"cp no worse than best greedy job sequence"
    (QCheck.make ~print:(Format.asprintf "%a" Instance.pp) gen_tiny)
    (fun inst ->
      let n = Array.length inst.Instance.jobs in
      let best_seq =
        permutations (List.init n Fun.id)
        |> List.map (fun perm ->
               (Sched.Greedy.solve_with_sequence inst (Array.of_list perm))
                 .Solution.late_jobs)
        |> List.fold_left min max_int
      in
      let sol, _ = solve inst in
      sol.Solution.late_jobs <= best_seq)

(* --- DFS trajectory snapshots ------------------------------------------- *)

(* (nodes, failures, late, proved) of the branch-and-bound search at fail
   limit 50k on five fixed instances.  The nodes are unchanged since the
   propagation-kernel overhaul.  The failures were re-pinned once, when
   SetTimes began to count its dominated dead end (every open task
   postponed at an unchanged est) as a failure: that node was already
   explored and ended the same way, so only the count moved (tight-6
   6727 -> 7317, mixed-5 46 -> 55, ar-8 190 -> 210, unary-4 28 -> 36,
   loose-10 435 -> 465).  Any other drift means the search no longer makes
   the same decisions in the same order, which silently invalidates every
   historical benchmark.  The second tuple pins the whole
   {!Cp.Solver.solve} pipeline (seed, bound, fast path, B&B) on the same
   instances: (nodes, failures, stop_reason, seed_late, lower_bound,
   late). *)
let snapshot_cases () =
  let reset = Gen.reset_tasks in
  [
    ( "tight-6",
      (reset ();
       instance ~map_cap:2 ~reduce_cap:1
         (List.init 6 (fun i ->
              mk_job ~id:i
                ~deadline:(25 + (4 * i))
                ~maps:[ 9; 7 ] ~reduces:[ 4 ] ()))),
      (7908, 7317, 1, true),
      (7907, 7316, Obs.Solve_stats.Proved, 2, 0, 1) );
    ( "mixed-5",
      (reset ();
       instance ~map_cap:2 ~reduce_cap:2
         [
           mk_job ~id:0 ~deadline:30 ~maps:[ 12; 5 ] ~reduces:[ 6; 3 ] ();
           mk_job ~id:1 ~deadline:22 ~maps:[ 8 ] ~reduces:[ 8 ] ();
           mk_job ~id:2 ~est:10 ~deadline:45 ~maps:[ 10; 10 ] ~reduces:[ 5 ] ();
           mk_job ~id:3 ~deadline:18 ~maps:[ 6; 6; 6 ] ~reduces:[] ();
           mk_job ~id:4 ~deadline:60 ~maps:[ 15 ] ~reduces:[ 9 ] ();
         ]),
      (65, 55, 0, true),
      (0, 0, Obs.Solve_stats.Proved, 0, 0, 0) );
    ( "ar-8",
      (reset ();
       instance ~map_cap:3 ~reduce_cap:2
         (List.init 8 (fun i ->
              mk_job ~id:i
                ~est:(3 * (i mod 3))
                ~deadline:(28 + (5 * i))
                ~maps:[ 7; 5 + (i mod 4) ]
                ~reduces:(if i mod 2 = 0 then [ 4 ] else [])
                ()))),
      (231, 210, 0, true),
      (0, 0, Obs.Solve_stats.Proved, 0, 0, 0) );
    ( "unary-4",
      (reset ();
       instance ~map_cap:1 ~reduce_cap:1
         (List.init 4 (fun i ->
              mk_job ~id:i
                ~deadline:(20 + (6 * i))
                ~maps:[ 5 + i ] ~reduces:[ 3 ] ()))),
      (45, 36, 0, true),
      (0, 0, Obs.Solve_stats.Proved, 0, 0, 0) );
    ( "loose-10",
      (reset ();
       instance ~map_cap:4 ~reduce_cap:2
         (List.init 10 (fun i ->
              mk_job ~id:i
                ~deadline:(40 + (7 * i))
                ~maps:[ 6; 4 ] ~reduces:[ 5 ] ()))),
      (496, 465, 0, true),
      (0, 0, Obs.Solve_stats.Proved, 0, 0, 0) );
  ]

(* Options under which the pipeline pins are wall-clock independent: the
   search is bounded by failures only, never by the deadline. *)
let pin_options =
  {
    Cp.Solver.default_options with
    Cp.Solver.fail_limit = 50_000;
    time_limit = 60.;
  }

let stop_reason =
  Alcotest.testable
    (Fmt.of_to_string Obs.Solve_stats.stop_reason_to_string)
    ( = )

let test_dfs_snapshots () =
  List.iter
    (fun ( name,
           inst,
           (nodes, failures, late, proved),
           (s_nodes, s_failures, s_stop, s_seed, s_lb, s_late) ) ->
      let model =
        Cp.Model.build inst ~horizon:(Cp.Model.default_horizon inst)
      in
      let greedy = Sched.Greedy.solve inst in
      model.Cp.Model.bound := greedy.Solution.late_jobs + 1;
      let o =
        Cp.Search.run model
          { Cp.Search.no_limits with Cp.Search.fail_limit = 50_000 }
      in
      let best = Option.value o.Cp.Search.best ~default:greedy in
      Alcotest.(check int) (name ^ " nodes") nodes o.Cp.Search.nodes;
      Alcotest.(check int) (name ^ " failures") failures o.Cp.Search.failures;
      Alcotest.(check int) (name ^ " late") late best.Solution.late_jobs;
      Alcotest.(check bool)
        (name ^ " proved") proved o.Cp.Search.proved_optimal;
      let sol, st = solve ~options:pin_options inst in
      let check what = Alcotest.(check int) (name ^ " solver " ^ what) in
      check "nodes" s_nodes st.Cp.Solver.nodes;
      check "failures" s_failures st.Cp.Solver.failures;
      Alcotest.check stop_reason (name ^ " solver stop") s_stop
        st.Cp.Solver.stop_reason;
      check "seed" s_seed st.Cp.Solver.seed_late;
      check "bound" s_lb st.Cp.Solver.lower_bound;
      check "late" s_late sol.Solution.late_jobs)
    (snapshot_cases ())

(* --- bound target -------------------------------------------------------- *)

(* A B&B run on a fresh model of [inst] under [limits]: (late count and
   starts of the incumbent, nodes, stop cause). *)
let target_run inst limits =
  let model = Cp.Model.build inst ~horizon:(Cp.Model.default_horizon inst) in
  let greedy = Sched.Greedy.solve inst in
  model.Cp.Model.bound := greedy.Solution.late_jobs + 1;
  let o = Cp.Search.run model limits in
  let best =
    Option.map
      (fun (sol : Solution.t) ->
        (sol.Solution.late_jobs, Array.to_list sol.Solution.starts))
      o.Cp.Search.best
  in
  (best, o.Cp.Search.nodes, o.Cp.Search.stopped)

(* Stopping at a proved lower bound changes nothing but the work: against
   the classic bound and against the proved optimum, a search with that
   target returns the untargeted search's incumbent, uses no more nodes,
   and stops at the very node that recorded it — a run capped one node
   earlier has not found it yet, a run capped at that node has. *)
let prop_target_stops_at_incumbent =
  QCheck.Test.make ~count:100 ~name:"target = lb: same incumbent, fewer nodes"
    Gen.arb_tiny_instance (fun inst ->
      let base = { Cp.Search.no_limits with Cp.Search.fail_limit = 50_000 } in
      let plain, plain_nodes, plain_stop = target_run inst base in
      let optimum =
        match (plain, plain_stop) with
        | Some (late, _), Cp.Search.Exhausted -> [ late ]
        | _ -> []
      in
      let targets =
        Cp.Solver.late_lower_bound (Cp.Solver.prepare inst) :: optimum
      in
      List.for_all
        (fun target ->
          let best, nodes, stop =
            target_run inst { base with Cp.Search.target = Some target }
          in
          let met =
            match best with Some (late, _) -> late <= target | None -> false
          in
          let capped n =
            let b, _, _ =
              target_run inst { base with Cp.Search.node_limit = n }
            in
            b
          in
          let recorded_here () =
            capped nodes = best && (nodes = 1 || capped (nodes - 1) <> best)
          in
          best = plain
          && nodes <= plain_nodes
          && (stop = Cp.Search.Target_met) = met
          && ((not met) || recorded_here ()))
        targets)

let () =
  Alcotest.run "cp"
    [
      ( "store",
        [
          Alcotest.test_case "bounds" `Quick test_store_bounds;
          Alcotest.test_case "backtrack" `Quick test_store_backtrack;
          Alcotest.test_case "root writes are not trailed" `Quick
            test_store_root_untrailed;
        ] );
      ( "store watch events",
        [
          Alcotest.test_case "unwatch drops both events" `Quick
            test_unwatch_both_events;
        ] );
      ( "propagators",
        [
          Alcotest.test_case "precedence" `Quick test_propagator_precedence;
          Alcotest.test_case "max" `Quick test_propagator_max;
          Alcotest.test_case "cumulative overload" `Quick
            test_propagator_cumulative_overload;
          Alcotest.test_case "cumulative pushes" `Quick
            test_propagator_cumulative_pushes;
        ] );
      ( "solver",
        [
          Alcotest.test_case "single job on time" `Quick
            test_single_job_on_time;
          Alcotest.test_case "doomed job" `Quick test_doomed_job;
          Alcotest.test_case "cp beats bad seed" `Quick test_cp_beats_bad_seed;
          Alcotest.test_case "exact proof of suboptimum" `Quick
            test_exact_proof_of_suboptimum;
          Alcotest.test_case "pipeline overlap" `Quick test_pipeline_overlap;
          Alcotest.test_case "frozen tasks respected" `Quick
            test_frozen_tasks_respected;
          Alcotest.test_case "doomed job sacrificed" `Quick
            test_doomed_job_sacrificed;
          Alcotest.test_case "budget zero returns seed" `Quick
            test_budget_zero_returns_seed;
          Alcotest.test_case "deterministic" `Quick test_solver_deterministic;
          Alcotest.test_case "search limits" `Quick
            test_search_limits_honoured;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "five DFS snapshots unchanged" `Quick
            test_dfs_snapshots;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_solution_feasible;
            prop_no_worse_than_greedy;
            prop_objective_at_least_lower_bound;
            prop_optimal_matches_bruteforce;
            prop_target_stops_at_incumbent;
          ] );
    ]
