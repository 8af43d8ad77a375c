(* Tests for the capacity propagators: event-granular watchers and
   timestamp wakeup suppression in the store, the Θ-Λ tree, the time table
   ({!Cp.Propagators.cumulative_dyn}) on random walks, and differential
   properties between capacity postings passed through the cold model's
   ({!Cold.Model.build}) [kernel] seam:
   - [naive]: the list-based reference time table ({!Naive_cumulative});
   - [timetable]: the library's time table alone, posted as the session
     posts it (a pool holding the pending tasks, frozen occupations as
     root-fixed starts);
   - [edge_finding]: the Θ-tree filter alone where it is sound, the time
     table elsewhere;
   - [production]: what the cold model posts by default,
     {!Cold.Edge_finding.capacity} (the time table everywhere, plus the
     Θ-tree filter on unary-equivalent pools).

   The key invariants, on fresh instances and on mid-stream ones whose
   running work may overload a pool that lost a slot:
   - [timetable] computes exactly the reference fixpoints, so its search
     trajectory (nodes/failures/objective/proof) is bit-identical to
     [naive]'s on every instance;
   - edge finding only prunes — it never loses a solution the time-table
     search can reach, so proved objectives agree across all four
     postings;
   - [production] engages the edge finder exactly on unary pools.
   The walks and the root-fixpoint property stand behind the library's one
   capacity constraint, the time table every session pool runs. *)

module Store = Cp.Store
module P = Cp.Propagators
module Instance = Sched.Instance
module Model = Cold.Model
module Search = Cp.Search
module Ef = Cold.Edge_finding

let naive = Naive_cumulative.post

let timetable s ~tasks ~fixed ~capacity =
  let pool = P.cumulative_dyn s ~capacity in
  Array.iter (P.dyn_add pool s) tasks;
  Array.iter
    (fun (start, duration, demand) ->
      let start = Store.new_var s ~min:start ~max:start in
      P.dyn_add pool s { P.start; duration; demand })
    fixed

let edge_finding s ~tasks ~fixed ~capacity =
  if Ef.disjunctive_applicable ~tasks ~fixed ~capacity then
    Ef.disjunctive s ~tasks ~fixed
  else timetable s ~tasks ~fixed ~capacity

let production = Ef.capacity
let all_postings = [ naive; timetable; edge_finding; production ]

(* --- event-granular watchers ------------------------------------------- *)

(* A min-watcher is woken by set_min but not by set_max (and vice versa). *)
let test_watch_granularity () =
  let s = Store.create () in
  let v = Store.new_var s ~min:0 ~max:10 in
  let min_runs = ref 0 and max_runs = ref 0 in
  let p_min = Store.register s (fun _ -> incr min_runs) in
  let p_max = Store.register s (fun _ -> incr max_runs) in
  Store.watch_min s v p_min;
  Store.watch_max s v p_max;
  Store.set_max s v 8;
  Store.propagate s;
  Alcotest.(check int) "set_max wakes no min-watcher" 0 !min_runs;
  Alcotest.(check int) "set_max wakes the max-watcher" 1 !max_runs;
  Store.set_min s v 3;
  Store.propagate s;
  Alcotest.(check int) "set_min wakes the min-watcher" 1 !min_runs;
  Alcotest.(check int) "set_min wakes no max-watcher" 1 !max_runs;
  Store.fix s v 5;
  Store.propagate s;
  Alcotest.(check int) "fixing wakes both bound watchers" 2 !min_runs;
  Alcotest.(check int) "fixing wakes both bound watchers (max)" 2 !max_runs

(* An idempotent propagator's own writes do not re-queue it; a foreign
   write after its run does. *)
let test_wakeup_suppression () =
  let s = Store.create () in
  let x = Store.new_var s ~min:0 ~max:100 in
  let y = Store.new_var s ~min:0 ~max:100 in
  let runs = ref 0 in
  (* y >= x: reads min x, writes min y — idempotent *)
  let pid =
    Store.register s ~idempotent:true (fun s ->
        incr runs;
        Store.set_min s y (Store.min_of s x))
  in
  Store.watch_min s x pid;
  Store.watch_min s y pid;
  let before = Store.stats_wakeups_skipped s in
  Store.set_min s x 10;
  Store.propagate s;
  Alcotest.(check int) "one run reaches the fixpoint" 1 !runs;
  Alcotest.(check bool) "its own write to y was suppressed" true
    (Store.stats_wakeups_skipped s > before);
  Store.set_min s y 20;
  Store.propagate s;
  Alcotest.(check int) "a foreign write still wakes it" 2 !runs

(* --- Θ-Λ tree ----------------------------------------------------------- *)

let test_theta_tree_ect () =
  let tr = Cold.Theta_tree.create () in
  Cold.Theta_tree.prepare tr 3;
  Alcotest.(check int) "empty ect" Cold.Theta_tree.neg_inf
    (Cold.Theta_tree.ect tr);
  (* leaves in est order: (0,5) (4,5) (30,4) *)
  Cold.Theta_tree.add tr 0 ~est:0 ~p:5;
  Cold.Theta_tree.add tr 1 ~est:4 ~p:5;
  Alcotest.(check int) "ect{t0,t1} chains" 10 (Cold.Theta_tree.ect tr);
  Cold.Theta_tree.add tr 2 ~est:30 ~p:4;
  Alcotest.(check int) "ect{t0,t1,t2}" 34 (Cold.Theta_tree.ect tr);
  Cold.Theta_tree.remove tr 2;
  Alcotest.(check int) "remove restores" 10 (Cold.Theta_tree.ect tr);
  (* gray t1: Θ = {t0}, Λ = {t1}; ect_bar extends Θ by t1 *)
  Cold.Theta_tree.gray tr 1;
  Alcotest.(check int) "ect of Θ alone" 5 (Cold.Theta_tree.ect tr);
  Alcotest.(check int) "ect_bar extends by the gray task" 10
    (Cold.Theta_tree.ect_bar tr);
  Alcotest.(check int) "gray task is responsible" 1
    (Cold.Theta_tree.responsible tr)

(* The edge finder engages only on unary-equivalent pools. *)
let test_disjunctive_applicable () =
  let tsk start duration demand = { P.start; duration; demand } in
  Alcotest.(check bool) "cap 1, demand 1" true
    (Ef.disjunctive_applicable
       ~tasks:[| tsk 0 5 1; tsk 1 3 1 |]
       ~fixed:[||] ~capacity:1);
  Alcotest.(check bool) "all demands = capacity" true
    (Ef.disjunctive_applicable
       ~tasks:[| tsk 0 5 3; tsk 1 3 3 |]
       ~fixed:[||] ~capacity:3);
  Alcotest.(check bool) "a sub-capacity demand disables it" false
    (Ef.disjunctive_applicable
       ~tasks:[| tsk 0 5 1; tsk 1 3 2 |]
       ~fixed:[||] ~capacity:2);
  Alcotest.(check bool) "sub-capacity frozen occupation disables it" false
    (Ef.disjunctive_applicable
       ~tasks:[| tsk 0 5 2 |]
       ~fixed:[| (0, 4, 1) |] ~capacity:2);
  Alcotest.(check bool) "no variable task disables it" false
    (Ef.disjunctive_applicable ~tasks:[||] ~fixed:[| (0, 4, 1) |] ~capacity:1)

(* Edge finding prunes a textbook case the time table cannot: three unary
   tasks where t3 must go last, so its est rises past the others' joint
   completion even though no compulsory parts exist. *)
let test_edge_finding_prunes_textbook () =
  let build kernel =
    let s = Store.create () in
    let a = Store.new_var s ~min:0 ~max:6 in
    let b = Store.new_var s ~min:1 ~max:6 in
    let c = Store.new_var s ~min:0 ~max:20 in
    let tasks =
      [|
        { P.start = a; duration = 5; demand = 1 };
        { P.start = b; duration = 5; demand = 1 };
        { P.start = c; duration = 5; demand = 1 };
      |]
    in
    kernel s ~tasks ~fixed:[||] ~capacity:1;
    Store.propagate s;
    (s, c)
  in
  let s_tt, c_tt = build timetable in
  let s_ef, c_ef = build production in
  (* lcts are 11: t1 and t2 must both finish before t3 can start *)
  Alcotest.(check bool) "timetable leaves c's est weak" true
    (Store.min_of s_tt c_tt < 10);
  Alcotest.(check int) "edge finding lifts c past {a,b}" 10
    (Store.min_of s_ef c_ef)

(* --- differential properties over generated instances ------------------- *)

let root_bounds kernel inst =
  match
    let model =
      Model.build ~kernel inst ~horizon:(Instance.default_horizon inst)
    in
    Store.propagate model.Model.store;
    model
  with
  | model ->
      let bounds v =
        (Store.min_of model.Model.store v, Store.max_of model.Model.store v)
      in
      Some
        (Array.concat
           [
             Array.map (fun (tv : Model.task_var) -> bounds tv.Model.var)
               model.Model.starts;
             Array.map bounds model.Model.lates;
             Array.map bounds model.Model.completions;
           ])
  | exception Store.Fail _ -> None

(* Root fixpoints: [timetable]'s are exactly [naive]'s, failures included
   (running work that overloads a pool fails both at the root);
   [production] is at least as tight on every variable, or fails where
   they did not. *)
let prop_root_fixpoint_no_looser =
  QCheck.Test.make ~count:300 ~name:"root fixpoints: timetable = naive <= EF"
    Gen.arb_fresh_or_midstream (fun inst ->
      let naive = root_bounds naive inst in
      if root_bounds timetable inst <> naive then
        QCheck.Test.fail_report "timetable root fixpoint differs from naive";
      match (naive, root_bounds production inst) with
      | None, None | Some _, None -> true
      | None, Some _ -> QCheck.Test.fail_report "EF ran where naive failed"
      | Some naive, Some both ->
          Array.for_all2
            (fun (nmin, nmax) (bmin, bmax) -> bmin >= nmin && bmax <= nmax)
            naive both)

let search_outcome kernel inst =
  let model =
    Model.build ~kernel inst ~horizon:(Instance.default_horizon inst)
  in
  let greedy = Sched.Greedy.solve inst in
  model.Model.bound := greedy.Sched.Solution.late_jobs + 1;
  let o =
    Cold.Search.run model { Search.no_limits with Search.fail_limit = 50_000 }
  in
  let late =
    match o.Search.best with
    | Some s -> s.Sched.Solution.late_jobs
    | None -> greedy.Sched.Solution.late_jobs
  in
  (o.Search.nodes, o.Search.failures, late, o.Search.proved_optimal)

(* The library time table reproduces the reference search trajectory
   bit-identically: same nodes, same failures, same objective, same proof
   status. *)
let prop_timetable_trajectory_bit_identical =
  QCheck.Test.make ~count:80 ~name:"naive/timetable trajectories identical"
    Gen.arb_fresh_or_midstream (fun inst ->
      search_outcome naive inst = search_outcome timetable inst)

(* Edge finding never prunes a reachable solution: on proof-complete runs
   every posting lands on the same optimal objective. *)
let prop_kernels_agree_on_optimum =
  QCheck.Test.make ~count:40 ~name:"all kernels prove the same optimum"
    Gen.arb_tiny_instance (fun inst ->
      let outcomes =
        List.map (fun k -> search_outcome k inst) all_postings
      in
      let proved = List.for_all (fun (_, _, _, p) -> p) outcomes in
      QCheck.assume proved;
      match outcomes with
      | (_, _, late0, _) :: rest ->
          List.for_all (fun (_, _, late, _) -> late = late0) rest
      | [] -> false)

(* --- the default posting engages the edge finder on unary pools only ----- *)

(* Eight jobs on capacity-1 pools with seeded sizes and tight deadlines:
   every pool is unary, so [production] posts the Θ-tree filter too. *)
let unary_instance () =
  let rng = Simrand.Rng.create 11 in
  Gen.instance ~map_cap:1 ~reduce_cap:1
    (List.init 8 (fun i ->
         let maps =
           List.init
             (1 + Simrand.Rng.int rng 3)
             (fun _ -> 1 + Simrand.Rng.int rng 20)
         in
         let reduces =
           List.init (Simrand.Rng.int rng 2) (fun _ ->
               1 + Simrand.Rng.int rng 20)
         in
         let total =
           List.fold_left ( + ) 0 maps + List.fold_left ( + ) 0 reduces
         in
         let deadline = (total / 2) + Simrand.Rng.int rng 60 in
         let est = Simrand.Rng.int rng 20 in
         Gen.mk_job ~id:i ~est ~deadline ~maps ~reduces ()))

(* One branch-and-bound from the greedy bound under [fail_limit] 20k:
   (nodes, proved, edge-finder prunes, propagations). *)
let search_counters ?kernel inst =
  let prunes = Ef.prunes () in
  let model =
    Model.build ?kernel inst ~horizon:(Instance.default_horizon inst)
  in
  let greedy = Sched.Greedy.solve inst in
  model.Model.bound := greedy.Sched.Solution.late_jobs + 1;
  let o =
    Cold.Search.run model { Search.no_limits with Search.fail_limit = 20_000 }
  in
  ( o.Search.nodes,
    o.Search.proved_optimal,
    Ef.prunes () - prunes,
    Store.stats_propagations model.Model.store )

let test_default_edge_finds_unary_pools () =
  let inst = unary_instance () in
  let nodes, proved, prunes, _ = search_counters inst in
  Alcotest.(check bool) "the default model proves the optimum" true proved;
  Alcotest.(check bool)
    (Printf.sprintf "within 200 nodes (took %d)" nodes)
    true (nodes <= 200);
  Alcotest.(check bool) "the edge finder pruned" true (prunes > 0);
  let tt_nodes, _, _, _ = search_counters ~kernel:timetable inst in
  Alcotest.(check bool)
    (Printf.sprintf "the time table alone needs > 10000 nodes (took %d)"
       tt_nodes)
    true (tt_nodes > 10_000)

(* Capacity 2, demand 1: no pool is unary, so the default posting is the
   time table alone and propagates exactly as much. *)
let test_default_is_timetable_on_shared_pools () =
  let inst =
    Gen.instance ~map_cap:2 ~reduce_cap:2
      (List.init 5 (fun i ->
           Gen.mk_job ~id:i ~est:(3 * i) ~deadline:(25 + (4 * i))
             ~maps:[ 9; 7; 4 ] ~reduces:[ 6 ] ()))
  in
  let nodes, _, prunes, props = search_counters inst in
  let tt_nodes, _, _, tt_props = search_counters ~kernel:timetable inst in
  Alcotest.(check bool) "the search branched" true (nodes > 1);
  Alcotest.(check int) "same nodes as the time table alone" tt_nodes nodes;
  Alcotest.(check int) "same propagations as the time table alone" tt_props
    props;
  Alcotest.(check int) "no edge-finder prune" 0 prunes

(* Wakeup suppression engages on real searches. *)
let test_wakeups_skipped_on_search () =
  let inst =
    Gen.instance ~map_cap:2 ~reduce_cap:1
      (List.init 4 (fun i ->
           Gen.mk_job ~id:i ~deadline:(30 + (5 * i)) ~maps:[ 10; 8 ]
             ~reduces:[ 5 ] ()))
  in
  let model =
    Model.build ~kernel:timetable inst
      ~horizon:(Instance.default_horizon inst)
  in
  model.Model.bound := 5;
  ignore (Cold.Search.run model Search.no_limits);
  Alcotest.(check bool) "wakeups were suppressed" true
    (Store.stats_wakeups_skipped model.Model.store > 0)

(* --- session pool ------------------------------------------------------ *)

(* Random walks over one [cumulative_dyn] pool.  After every propagation
   the pool's fixpoint must equal that of the reference time table
   ({!Naive_cumulative}) posted fresh over the same tasks at the bounds the
   step started from: the reference shares no code with the session kernel
   and has no kept profile, change list or prune marks, so any stale cache
   shows up as a different bound or a different failure verdict.  The
   session kernel reads its arrays without bounds checks, and these walks
   are what stands behind that. *)

(* The pool under test and its registry as the test sees it:
   (var, duration, demand), in insertion order. *)
type pool_walk = {
  w_store : Store.t;
  w_pool : P.dyn_pool;
  w_capacity : int;
  mutable w_live : (Store.var * int * int) list;
}

let pool_walk capacity =
  let s = Store.create () in
  { w_store = s; w_pool = P.cumulative_dyn s ~capacity; w_capacity = capacity;
    w_live = [] }

(* A task (est, lst - est, duration, demand, frozen); the demand is clipped
   to the capacity. *)
let walk_add w (est, width, dur, dem, frozen) =
  let s = w.w_store in
  let dem = min dem w.w_capacity in
  let v =
    if frozen then Store.new_var s ~min:est ~max:est
    else Store.new_var s ~min:est ~max:(est + width)
  in
  P.dyn_add w.w_pool s { P.start = v; duration = dur; demand = dem };
  w.w_live <- w.w_live @ [ (v, dur, dem) ]

(* The reference time table's fixpoint over [tasks] ((duration, demand,
   min, max) each) at those bounds, or [None] when it fails. *)
let fresh_fixpoint ~capacity tasks =
  let s = Store.create () in
  let vars =
    List.map (fun (_, _, lo, hi) -> Store.new_var s ~min:lo ~max:hi) tasks
  in
  let terms =
    List.map2
      (fun v (duration, demand, _, _) -> { P.start = v; duration; demand })
      vars tasks
  in
  match
    naive s ~tasks:(Array.of_list terms) ~fixed:[||] ~capacity;
    Store.propagate s
  with
  | () -> Some (List.map (fun v -> (Store.min_of s v, Store.max_of s v)) vars)
  | exception Store.Fail _ -> None

(* One propagation checked against the fresh reference; false when the
   store failed. *)
let walk_propagate w =
  let s = w.w_store in
  let before =
    List.map
      (fun (v, dur, dem) -> (dur, dem, Store.min_of s v, Store.max_of s v))
      w.w_live
  in
  let expect = fresh_fixpoint ~capacity:w.w_capacity before in
  let got =
    match Store.propagate s with
    | () ->
        Some
          (List.map
             (fun (v, _, _) -> (Store.min_of s v, Store.max_of s v))
             w.w_live)
    | exception Store.Fail _ -> None
  in
  if got <> expect then
    QCheck.Test.fail_reportf "fixpoint differs at level %d" (Store.level s);
  got <> None

let walk_pick w a = List.nth w.w_live (a mod List.length w.w_live)

(* At the root, as a session does between searches: fix a completed task
   at its realized start, then retire it.  False once the store failed or
   the registry is empty. *)
let walk_retire w a =
  let s = w.w_store in
  Store.backtrack_to s 0;
  let v, _, _ = walk_pick w a in
  Store.fix s v (Store.min_of s v);
  walk_propagate w
  && begin
       P.dyn_retire w.w_pool s v;
       w.w_live <- List.filter (fun (u, _, _) -> u <> v) w.w_live;
       w.w_live <> [] && walk_propagate w
     end

(* A node that fails is undone, as the search does; the walk goes on. *)
let walk_node w decide =
  let s = w.w_store in
  Store.push_level s;
  decide ();
  if walk_propagate w then true
  else begin
    Store.backtrack s;
    false
  end

(* Small walks: a capacity, initial tasks and steps (kind, a, b): kinds 0–2
   fix a start, 3 raise its min, 4 lower its max, 5–6 backtrack one level,
   7 add a task at the root and 8 retire one there.  [a] and [b] pick the
   task and the value. *)
let gen_walk =
  let open QCheck.Gen in
  let task =
    tup5 (int_range 0 20) (int_range 0 15) (int_range 0 8) (int_range 0 3)
      (frequency [ (1, return true); (4, return false) ])
  in
  tup3 (int_range 1 3)
    (list_size (int_range 1 8) task)
    (list_size (int_range 1 40)
       (tup3 (int_range 0 8) (int_range 0 1000) (int_range 0 1000)))

let print_walk (cap, tasks, ops) =
  Printf.sprintf "capacity %d\ntasks %s\nops %s" cap
    (String.concat "; "
       (List.map
          (fun (e, w, d, r, f) -> Printf.sprintf "(%d,%d,%d,%d,%b)" e w d r f)
          tasks))
    (String.concat "; "
       (List.map (fun (k, a, b) -> Printf.sprintf "(%d,%d,%d)" k a b) ops))

let prop_dyn_pool_caches =
  QCheck.Test.make ~count:300 ~name:"caches = fresh pool"
    (QCheck.make ~print:print_walk gen_walk) (fun (capacity, init, ops) ->
      let w = pool_walk capacity in
      let s = w.w_store in
      List.iter (walk_add w) init;
      let rec walk = function
        | [] -> true
        | (kind, a, b) :: rest ->
            let ok =
              if kind >= 5 && kind <= 6 then begin
                if Store.level s > 0 then Store.backtrack s;
                true
              end
              else if kind = 7 then begin
                Store.backtrack_to s 0;
                walk_add w (a mod 21, b mod 16, a mod 9, b mod 4, false);
                walk_propagate w
              end
              else if kind = 8 then walk_retire w a
              else begin
                let v, _, _ = walk_pick w a in
                ignore
                  (walk_node w (fun () ->
                       let lo = Store.min_of s v and hi = Store.max_of s v in
                       let x = lo + (b mod (hi - lo + 1)) in
                       match kind with
                       | 3 -> Store.set_min s v x
                       | 4 -> Store.set_max s v x
                       | _ -> Store.fix s v x)
                    : bool);
                true
              end
            in
            if ok then walk rest
            else (* root failure: the walk ends *) true
      in
      (not (walk_propagate w)) || walk ops)

(* Walks shaped like the session's searches, on pools the size of the
   contended workloads' (up to 40 tasks, capacity up to 8): SetTimes dives
   that fix the unfixed task of smallest est at that est, level by level
   until a fix fails; est raises such as the precedences make; backtracks
   over several levels; and adds, retirements and restarts at the root.
   Steps (kind, a, b): 0–3 dive up to [1 + a mod 12] levels, 4–5 backtrack
   [1 + a mod 6] levels, 6 raise a min, 7 add a task, 8 retire one, 9
   return to the root. *)
let gen_dive_walk =
  let open QCheck.Gen in
  let* capacity = int_range 1 8 in
  let* n = int_range (min 40 (3 * capacity)) (min 40 (5 * capacity)) in
  (* about as much work as the capacity can hold over the horizon *)
  let task =
    tup5
      (int_range 0 (6 * n))
      (int_range 0 (3 * n))
      (int_range 0 15) (int_range 0 capacity)
      (frequency [ (1, return true); (7, return false) ])
  in
  let* tasks = list_repeat n task in
  let* ops =
    list_size (int_range 1 30)
      (tup3 (int_range 0 9) (int_range 0 1000) (int_range 0 1000))
  in
  return (capacity, tasks, ops)

(* the unfixed task of smallest est (first in registry order on ties) *)
let settimes_pick w =
  let s = w.w_store in
  List.fold_left
    (fun best (v, _, _) ->
      if Store.is_fixed s v then best
      else
        match best with
        | Some u when Store.min_of s u <= Store.min_of s v -> best
        | _ -> Some v)
    None w.w_live

let prop_dyn_pool_dives =
  QCheck.Test.make ~count:500 ~name:"SetTimes dives = fresh pool"
    (QCheck.make ~print:print_walk gen_dive_walk) (fun (capacity, init, ops) ->
      let w = pool_walk capacity in
      let s = w.w_store in
      List.iter (walk_add w) init;
      let rec dive depth =
        depth > 0
        &&
        match settimes_pick w with
        | None -> true
        | Some v ->
            walk_node w (fun () -> Store.fix s v (Store.min_of s v))
            && dive (depth - 1)
      in
      let rec walk = function
        | [] -> true
        | (kind, a, b) :: rest ->
            let ok =
              if kind <= 3 then begin
                ignore (dive (1 + (a mod 12)) : bool);
                true
              end
              else if kind <= 5 then begin
                Store.backtrack_to s (max 0 (Store.level s - 1 - (a mod 6)));
                true
              end
              else if kind = 6 then begin
                let v, _, _ = walk_pick w a in
                ignore
                  (walk_node w (fun () ->
                       let lo = Store.min_of s v and hi = Store.max_of s v in
                       Store.set_min s v (lo + (b mod (hi - lo + 1))))
                    : bool);
                true
              end
              else if kind = 7 then begin
                Store.backtrack_to s 0;
                let n = List.length w.w_live in
                walk_add w
                  (a mod ((6 * n) + 1), b mod ((3 * n) + 1), a mod 16, b mod 9,
                   false);
                walk_propagate w
              end
              else if kind = 8 then walk_retire w a
              else begin
                Store.backtrack_to s 0;
                true
              end
            in
            if ok then walk rest
            else (* root failure: the walk ends *) true
      in
      (not (walk_propagate w)) || walk ops)

(* A fix that fails on overload must fail again when it is made again after
   backtracking: nothing the session kernel caches across levels may keep
   the failed level's profile, or forget it.  On one unit slot, two 5-long
   tasks that may start in [0, 5] have no compulsory part at the root; a
   start at 3 leaves the other no room, a start at 0 pushes it to 5. *)
let test_dyn_pool_refails_after_backtrack () =
  List.iter
    (fun (name, post) ->
      let s = Store.create () in
      let a = Store.new_var s ~min:0 ~max:5 in
      let b = Store.new_var s ~min:0 ~max:5 in
      post s
        [|
          { P.start = a; duration = 5; demand = 1 };
          { P.start = b; duration = 5; demand = 1 };
        |];
      Store.propagate s;
      let try_fix x =
        Store.push_level s;
        let failed =
          match
            Store.fix s a x;
            Store.propagate s
          with
          | () -> false
          | exception Store.Fail _ -> true
        in
        let b_fixed = Store.is_fixed s b && not failed in
        let b_at = if b_fixed then Store.min_of s b else -1 in
        Store.backtrack s;
        (failed, b_at)
      in
      let check what expect got =
        Alcotest.(check (pair bool int)) (name ^ ": " ^ what) expect got
      in
      check "overload fails" (true, -1) (try_fix 3);
      check "same fix fails again" (true, -1) (try_fix 3);
      check "a fitting fix pushes the other" (false, 5) (try_fix 0);
      check "and the overload still fails" (true, -1) (try_fix 3))
    [
      ( "session kernel",
        fun s tasks ->
          let pool = P.cumulative_dyn s ~capacity:1 in
          Array.iter (P.dyn_add pool s) tasks );
      ("reference", fun s tasks -> naive s ~tasks ~fixed:[||] ~capacity:1);
    ]

(* The same after a failure of the overload check itself: the kernel
   checks only the usage its edits raised, so a failed check must be
   remembered, since backtracking and making the same fix again brings the
   very parts that overloaded back without an edit.  A fix inside the
   task's window can overload where no bound rule reaches: on one unit
   slot, a 2-long task free in [0, 10] beside a frozen one at [4, 6). *)
let test_dyn_pool_overload_refails_after_backtrack () =
  List.iter
    (fun (name, post) ->
      let s = Store.create () in
      let a = Store.new_var s ~min:0 ~max:10 in
      let b = Store.new_var s ~min:4 ~max:4 in
      post s
        [|
          { P.start = a; duration = 2; demand = 1 };
          { P.start = b; duration = 2; demand = 1 };
        |];
      Store.propagate s;
      let fails x =
        Store.push_level s;
        let failed =
          match
            Store.fix s a x;
            Store.propagate s
          with
          | () -> false
          | exception Store.Fail _ -> true
        in
        Store.backtrack s;
        failed
      in
      let check what expect got =
        Alcotest.(check bool) (name ^ ": " ^ what) expect got
      in
      check "overload fails" true (fails 3);
      check "same fix fails again" true (fails 3);
      check "a fitting fix" false (fails 0);
      check "and the overload still fails" true (fails 3))
    [
      ( "session kernel",
        fun s tasks ->
          let pool = P.cumulative_dyn s ~capacity:1 in
          Array.iter (P.dyn_add pool s) tasks );
      ("reference", fun s tasks -> naive s ~tasks ~fixed:[||] ~capacity:1);
    ]

(* The kernel learns which starts moved from a list of bound events with
   room for twice its registry's capacity; when more events than that pile
   up between two runs (a session's sync bumps and freezes many starts at
   the root), it must compare every slot instead.  Here 32 events on x fill
   the list of a 16-slot pool, then y gains the compulsory part [10, 13),
   which must push z out of [9, 14). *)
let test_dyn_pool_event_overflow () =
  List.iter
    (fun (name, post) ->
      let s = Store.create () in
      let x = Store.new_var s ~min:0 ~max:100 in
      let y = Store.new_var s ~min:0 ~max:10 in
      let z = Store.new_var s ~min:9 ~max:30 in
      post s
        (Array.map
           (fun v -> { P.start = v; duration = 5; demand = 1 })
           [| x; y; z |]);
      Store.propagate s;
      for m = 1 to 32 do
        Store.set_min s x m
      done;
      Store.set_min s y 8;
      Store.propagate s;
      Alcotest.(check int) (name ^ ": z pushed past y's part") 13
        (Store.min_of s z))
    [
      ( "session kernel",
        fun s tasks ->
          let pool = P.cumulative_dyn s ~capacity:1 in
          Array.iter (P.dyn_add pool s) tasks );
      ("reference", fun s tasks -> naive s ~tasks ~fixed:[||] ~capacity:1);
    ]

(* The profile holds at most two breakpoints per task, and one more while
   a part's end moves past a neighbour (the new breakpoint goes in before
   the old one goes).  Sixteen tasks fill the pool's first capacity, each
   with a part of its own and all ends distinct, so the profile is full;
   then one end moves past the next breakpoint, and the pool grows.  The
   kernel writes its arrays unchecked, so a profile one cell short would
   overwrite the next block's header, which growing the pool then reads. *)
let test_dyn_pool_full_profile () =
  let s = Store.create () in
  let pool = P.cumulative_dyn s ~capacity:16 in
  let reference = Store.create () in
  let add lo hi =
    let v = Store.new_var s ~min:lo ~max:hi in
    P.dyn_add pool s { P.start = v; duration = 5; demand = 1 };
    v
  in
  (* task i may start in [4i, 4i + 2]: part [4i + 2, 4i + 5) *)
  let vars = List.init 16 (fun i -> add (4 * i) ((4 * i) + 2)) in
  Store.propagate s;
  (* its part's end moves from 5 past the next task's start at 6 *)
  Store.fix s (List.hd vars) 2;
  Store.propagate s;
  let more = List.init 20 (fun i -> add (100 + (7 * i)) (106 + (7 * i))) in
  Store.propagate s;
  Gc.full_major ();
  let all = vars @ more in
  let tasks =
    List.map
      (fun v ->
        {
          P.start = Store.new_var reference ~min:(Store.min_of s v)
              ~max:(Store.max_of s v);
          duration = 5;
          demand = 1;
        })
      all
  in
  naive reference ~tasks:(Array.of_list tasks) ~fixed:[||] ~capacity:16;
  Store.propagate reference;
  Alcotest.(check (list (pair int int)))
    "the fixpoint of a fresh reference"
    (List.map
       (fun (t : P.term) ->
         (Store.min_of reference t.P.start, Store.max_of reference t.P.start))
       tasks)
    (List.map (fun v -> (Store.min_of s v, Store.max_of s v)) all)

(* An edit of the profile re-prunes only the tasks whose est- or
   lst-window meets the parts it changed ([prop/tt_prunes] counts the
   tasks pruned).  One unit slot and four 5-long tasks, each free to start
   anywhere in a window 5 wider than itself, so nothing has a compulsory
   part at the root. *)
let test_dyn_pool_scoped_prunes () =
  let prunes_of fix =
    let s = Store.create () in
    let pool = P.cumulative_dyn s ~capacity:1 in
    let task lo =
      let v = Store.new_var s ~min:lo ~max:(lo + 5) in
      P.dyn_add pool s { P.start = v; duration = 5; demand = 1 };
      v
    in
    let a = task 0 and b = task 50 and _c = task 100 and e = task 44 in
    Store.propagate s;
    let before = Store.stats_tt_prunes s in
    Store.push_level s;
    fix s ~a ~b ~e;
    Store.propagate s;
    (Store.stats_tt_prunes s - before, Store.min_of s b)
  in
  (* a at 0 holds [0, 5): no other window comes near, and a fixed task
     has nothing to prune *)
  Alcotest.(check (pair int int)) "a part far from every window" (0, 50)
    (prunes_of (fun s ~a ~b:_ ~e:_ -> Store.fix s a 0));
  (* e at 48 holds [48, 53), inside b's est-window [50, 55): b is pruned
     to start at 53, which gives it the part [55, 58).  That part meets
     only b's own windows, and a task's own part never blocks it, so
     nothing is pruned again; a and c keep their marks *)
  Alcotest.(check (pair int int)) "a part inside another task's window"
    (1, 53)
    (prunes_of (fun s ~a:_ ~b:_ ~e -> Store.fix s e 48))

let () =
  Alcotest.run "kernels"
    [
      ( "store events",
        [
          Alcotest.test_case "event-granular watchers" `Quick
            test_watch_granularity;
          Alcotest.test_case "timestamp wakeup suppression" `Quick
            test_wakeup_suppression;
          Alcotest.test_case "suppression engages on real searches" `Quick
            test_wakeups_skipped_on_search;
        ] );
      ( "theta tree",
        [
          Alcotest.test_case "ect maintenance" `Quick test_theta_tree_ect;
          Alcotest.test_case "engagement rule" `Quick
            test_disjunctive_applicable;
          Alcotest.test_case "edge finding beats the time table" `Quick
            test_edge_finding_prunes_textbook;
          Alcotest.test_case "default edge-finds unary pools" `Quick
            test_default_edge_finds_unary_pools;
          Alcotest.test_case "default is the time table on shared pools"
            `Quick test_default_is_timetable_on_shared_pools;
        ] );
      ( "session pool",
        [
          Alcotest.test_case "a failed fix fails again after backtracking"
            `Quick test_dyn_pool_refails_after_backtrack;
          Alcotest.test_case "an overload fails again after backtracking"
            `Quick test_dyn_pool_overload_refails_after_backtrack;
          Alcotest.test_case "an edit re-prunes only the windows it meets"
            `Quick test_dyn_pool_scoped_prunes;
          Alcotest.test_case "an event overflow refreshes every slot" `Quick
            test_dyn_pool_event_overflow;
          Alcotest.test_case "a full profile and a moving end" `Quick
            test_dyn_pool_full_profile;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_dyn_pool_caches; prop_dyn_pool_dives ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_root_fixpoint_no_looser;
            prop_timetable_trajectory_bit_identical;
            prop_kernels_agree_on_optimum;
          ] );
    ]
