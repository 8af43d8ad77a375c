(* Tests for profiles, instances, solutions and the greedy list scheduler. *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution
module Profile = Sched.Profile

(* --- profile ------------------------------------------------------------ *)

let test_profile_empty () =
  let p = Profile.create ~capacity:2 in
  Alcotest.(check int) "usage 0" 0 (Profile.usage_at p 100);
  Alcotest.(check bool) "fits anywhere" true
    (Profile.fits p ~start:5 ~duration:10 ~amount:2);
  Alcotest.(check int) "earliest is from" 7
    (Profile.earliest_fit p ~from:7 ~duration:3 ~amount:1);
  Alcotest.(check int) "peak" 0 (Profile.max_usage p)

let test_profile_add_and_usage () =
  let p = Profile.create ~capacity:3 in
  Profile.add p ~start:10 ~duration:10 ~amount:2;
  Alcotest.(check int) "before" 0 (Profile.usage_at p 9);
  Alcotest.(check int) "inside" 2 (Profile.usage_at p 10);
  Alcotest.(check int) "inside end" 2 (Profile.usage_at p 19);
  Alcotest.(check int) "after" 0 (Profile.usage_at p 20);
  Profile.add p ~start:15 ~duration:10 ~amount:1;
  Alcotest.(check int) "overlap" 3 (Profile.usage_at p 16);
  Alcotest.(check int) "peak" 3 (Profile.max_usage p)

let test_profile_fits_capacity () =
  let p = Profile.create ~capacity:2 in
  Profile.add p ~start:0 ~duration:10 ~amount:2;
  Alcotest.(check bool) "full window rejected" false
    (Profile.fits p ~start:5 ~duration:2 ~amount:1);
  Alcotest.(check bool) "after window ok" true
    (Profile.fits p ~start:10 ~duration:2 ~amount:2);
  Alcotest.(check bool) "partial overlap rejected" false
    (Profile.fits p ~start:9 ~duration:2 ~amount:1)

let test_profile_earliest_fit_gap () =
  let p = Profile.create ~capacity:1 in
  Profile.add p ~start:0 ~duration:10 ~amount:1;
  Profile.add p ~start:15 ~duration:10 ~amount:1;
  (* gap [10,15) fits a 5-long task but not 6 *)
  Alcotest.(check int) "fits in gap" 10
    (Profile.earliest_fit p ~from:0 ~duration:5 ~amount:1);
  Alcotest.(check int) "too long for gap" 25
    (Profile.earliest_fit p ~from:0 ~duration:6 ~amount:1);
  Alcotest.(check int) "from inside gap" 11
    (Profile.earliest_fit p ~from:11 ~duration:4 ~amount:1)

(* A copy and its original share no state, whether a change lands inside
   the existing steps or grows the step arrays. *)
let test_profile_copy_independent () =
  let steps = Alcotest.(list (pair int int)) in
  let p = Profile.create ~capacity:3 in
  Profile.add p ~start:0 ~duration:10 ~amount:1;
  let before = Profile.steps p in
  let c = Profile.copy p in
  Alcotest.(check steps) "copy equals original" before (Profile.steps c);
  Profile.add c ~start:0 ~duration:10 ~amount:2;
  for i = 1 to 40 do
    Profile.add c ~start:(20 * i) ~duration:5 ~amount:1
  done;
  Alcotest.(check steps) "original untouched by the copy" before
    (Profile.steps p);
  let grown = Profile.steps c in
  Profile.add p ~start:0 ~duration:10 ~amount:1;
  Profile.add p ~start:3 ~duration:4 ~amount:3;
  Alcotest.(check steps) "copy untouched by the original" grown
    (Profile.steps c);
  Alcotest.(check int) "copy peak" 3 (Profile.max_usage c);
  Alcotest.(check int) "copy capacity" 3 (Profile.capacity c)

let test_profile_zero_duration () =
  let p = Profile.create ~capacity:1 in
  Profile.add p ~start:5 ~duration:0 ~amount:1;
  Alcotest.(check int) "zero-duration adds nothing" 0 (Profile.usage_at p 5)

let test_profile_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Profile.create: capacity must be > 0") (fun () ->
      ignore (Profile.create ~capacity:0))

(* earliest_fit against a brute-force oracle *)
let prop_earliest_fit_matches_oracle =
  let gen =
    QCheck.Gen.(
      let* cap = int_range 1 3 in
      let* n = int_range 0 8 in
      let* tasks =
        list_repeat n (triple (int_range 0 40) (int_range 1 10) (int_range 1 cap))
      in
      let* from = int_range 0 50 in
      let* dur = int_range 1 10 in
      let* amount = int_range 1 cap in
      return (cap, tasks, from, dur, amount))
  in
  QCheck.Test.make ~count:1000 ~name:"earliest_fit matches brute force"
    (QCheck.make gen) (fun (cap, tasks, from, dur, amount) ->
      let p = Profile.create ~capacity:cap in
      List.iter
        (fun (s, d, a) ->
          if Profile.fits p ~start:s ~duration:d ~amount:a then
            Profile.add p ~start:s ~duration:d ~amount:a)
        tasks;
      let result = Profile.earliest_fit p ~from ~duration:dur ~amount in
      (* oracle: scan times one by one *)
      let rec scan t =
        if Profile.fits p ~start:t ~duration:dur ~amount then t
        else scan (t + 1)
      in
      let oracle = scan from in
      result = oracle)

(* the fused placement against the two calls it replaces and a brute-force
   fit, over sequences long enough to grow the arrays, with repeated
   starting times, zero durations and amounts; the steps are also checked
   against the intervals placed so far: a boundary at every start and
   finish, each carrying the sum of the intervals that cover it *)
let prop_place_matches_fit_then_add =
  let gen =
    QCheck.Gen.(
      let* cap = int_range 1 3 in
      let* n = int_range 0 40 in
      let* ops =
        list_repeat n
          (quad (int_range 0 60) (int_range 0 12) (int_range 0 cap)
             (int_range 0 2))
      in
      return (cap, ops))
  in
  QCheck.Test.make ~count:1000 ~name:"place = earliest_fit then add"
    (QCheck.make gen) (fun (cap, ops) ->
      let fused = ref (Profile.create ~capacity:cap)
      and split = Profile.create ~capacity:cap
      and scratch = Profile.create ~capacity:cap
      and placed = ref [] in
      let expected () =
        List.concat_map (fun (s, f, _) -> [ s; f ]) !placed
        |> List.sort_uniq compare
        |> List.map (fun t ->
               ( t,
                 List.fold_left
                   (fun acc (s, f, a) ->
                     if s <= t && t < f then acc + a else acc)
                   0 !placed ))
      in
      List.for_all
        (fun (from, duration, amount, copy) ->
          (* a copy must keep placing like its original, and so must a
             reused profile the original was copied into (its arrays,
             and its last search, were another profile's) *)
          if copy = 1 then fused := Profile.copy !fused
          else if copy = 2 then begin
            Profile.copy_into ~src:!fused scratch;
            let old = !fused in
            fused := scratch;
            ignore (Profile.place old ~from:(from + 7) ~duration:3 ~amount:1);
            Profile.clear old;
            Profile.copy_into ~src:scratch old;
            fused := old
          end;
          let fused = !fused in
          (* brute force on the profile before the placement: the floor
             search may resume from an earlier one's answer *)
          let rec oracle t =
            if Profile.fits split ~start:t ~duration ~amount then t
            else oracle (t + 1)
          in
          let s0 = oracle from in
          let s1 = Profile.place fused ~from ~duration ~amount in
          let s2 = Profile.earliest_fit split ~from ~duration ~amount in
          Profile.add split ~start:s2 ~duration ~amount;
          if duration > 0 && amount > 0 then
            placed := (s1, s1 + duration, amount) :: !placed;
          s0 = s1 && s1 = s2
          && Profile.steps fused = Profile.steps split
          && Profile.steps fused = expected ())
        ops)

(* Index_sort against [Array.stable_sort] on the same pairs: random
   ranges of random index arrays (repeats allowed), keys with ties and
   short and long ranges, so both the insertion and the merge path run. *)
let prop_index_sort_matches_stable_sort =
  let gen =
    QCheck.Gen.(
      let* n_keys = int_range 1 80 in
      let* key = array_repeat n_keys (int_range (-5) 5) in
      let* tie = array_repeat n_keys (int_range 0 8) in
      let* len = int_range 0 120 in
      let* a = array_repeat len (int_bound (n_keys - 1)) in
      let* lo = int_bound len in
      let* hi = int_range lo len in
      return (key, tie, a, lo, hi))
  in
  QCheck.Test.make ~count:1000 ~name:"index sort = stable sort on the pairs"
    (QCheck.make gen) (fun (key, tie, a, lo, hi) ->
      let expected = Array.copy a in
      let range = Array.sub a lo (hi - lo) in
      Array.stable_sort
        (fun x y ->
          let c = compare key.(x) key.(y) in
          if c <> 0 then c else compare tie.(x) tie.(y))
        range;
      Array.blit range 0 expected lo (hi - lo);
      Sched.Index_sort.sort a ~lo ~hi ~key ~tie;
      a = expected)

(* --- instance ----------------------------------------------------------- *)

let counter = ref 0

let mk_job ~id ?(est = 0) ~deadline ~maps ~reduces () =
  let fresh kind e =
    incr counter;
    { T.task_id = !counter; job_id = id; kind; exec_time = e; capacity_req = 1 }
  in
  {
    T.id;
    arrival = 0;
    earliest_start = est;
    deadline;
    map_tasks = Array.of_list (List.map (fresh T.Map_task) maps);
    reduce_tasks = Array.of_list (List.map (fresh T.Reduce_task) reduces);
  }

let test_instance_of_fresh_jobs () =
  let j = mk_job ~id:0 ~est:5 ~deadline:100 ~maps:[ 10; 20 ] ~reduces:[ 5 ] () in
  let inst =
    Instance.of_fresh_jobs ~now:10 ~map_capacity:4 ~reduce_capacity:4 [ j ]
  in
  Alcotest.(check int) "pending" 3 (Instance.pending_task_count inst);
  Alcotest.(check int) "fixed" 0 (Instance.fixed_task_count inst);
  let pj = inst.Instance.jobs.(0) in
  Alcotest.(check int) "est bumped to now" 10 pj.Instance.est;
  Alcotest.(check int) "laxity" (100 - 10 - 35) (Instance.laxity pj)

(* --- greedy -------------------------------------------------------------- *)

let fresh_instance ?(map_cap = 2) ?(reduce_cap = 2) jobs =
  Instance.of_fresh_jobs ~now:0 ~map_capacity:map_cap ~reduce_capacity:reduce_cap
    jobs

let test_greedy_single_job () =
  let j = mk_job ~id:0 ~deadline:1000 ~maps:[ 10; 20 ] ~reduces:[ 5 ] () in
  let inst = fresh_instance [ j ] in
  let sol = Sched.Greedy.solve inst in
  Alcotest.(check (list string)) "feasible" []
    (Solution.feasibility_errors inst sol);
  Alcotest.(check int) "on time" 0 sol.Solution.late_jobs;
  (* both maps fit in parallel (cap 2), so reduce starts at 20 *)
  let r = j.T.reduce_tasks.(0) in
  Alcotest.(check int) "reduce at LFMT" 20 (Solution.start_of inst sol ~task_id:r.T.task_id)

let test_greedy_respects_capacity () =
  let j = mk_job ~id:0 ~deadline:10_000 ~maps:[ 10; 10; 10 ] ~reduces:[] () in
  let inst = fresh_instance ~map_cap:1 [ j ] in
  let sol = Sched.Greedy.solve inst in
  Alcotest.(check (list string)) "feasible" []
    (Solution.feasibility_errors inst sol);
  (* serialized on one slot: completions at 10,20,30 *)
  let completion = Solution.job_completion inst 0 sol.Solution.starts in
  Alcotest.(check int) "serialized" 30 completion

let test_greedy_respects_est () =
  let j = mk_job ~id:0 ~est:500 ~deadline:10_000 ~maps:[ 10 ] ~reduces:[] () in
  let inst = fresh_instance [ j ] in
  let sol = Sched.Greedy.solve inst in
  let s = Solution.start_of inst sol ~task_id:j.T.map_tasks.(0).T.task_id in
  Alcotest.(check int) "starts at est" 500 s

let test_greedy_edf_order_helps () =
  (* one slot: tight job must go first under EDF *)
  let loose = mk_job ~id:0 ~deadline:10_000 ~maps:[ 10 ] ~reduces:[] () in
  let tight = mk_job ~id:1 ~deadline:10 ~maps:[ 10 ] ~reduces:[] () in
  let inst = fresh_instance ~map_cap:1 [ loose; tight ] in
  let edf = Sched.Greedy.solve ~order:Sched.Greedy.Edf inst in
  Alcotest.(check int) "edf meets both" 0 edf.Solution.late_jobs;
  let by_id = Sched.Greedy.solve ~order:Sched.Greedy.By_job_id inst in
  Alcotest.(check int) "by-id misses one" 1 by_id.Solution.late_jobs

let test_greedy_backfills_ar_gap () =
  (* an advance reservation leaves the machine idle; a later-priority job
     must backfill the gap *)
  let ar = mk_job ~id:0 ~est:1000 ~deadline:1200 ~maps:[ 100 ] ~reduces:[] () in
  let small = mk_job ~id:1 ~deadline:5000 ~maps:[ 50 ] ~reduces:[] () in
  let inst = fresh_instance ~map_cap:1 [ ar; small ] in
  let sol = Sched.Greedy.solve ~order:Sched.Greedy.Edf inst in
  let s_small = Solution.start_of inst sol ~task_id:small.T.map_tasks.(0).T.task_id in
  Alcotest.(check int) "backfilled at 0" 0 s_small;
  Alcotest.(check int) "none late" 0 sol.Solution.late_jobs

let test_greedy_precedence_with_frozen_lfmt () =
  (* job with a frozen map finishing at 100: pending reduce must start >= 100 *)
  incr counter;
  let frozen_map =
    { T.task_id = !counter; job_id = 0; kind = T.Map_task; exec_time = 100; capacity_req = 1 }
  in
  let j = mk_job ~id:0 ~deadline:10_000 ~maps:[] ~reduces:[ 10 ] () in
  let inst = fresh_instance [ j ] in
  let pj = inst.Instance.jobs.(0) in
  let pj =
    {
      pj with
      Instance.fixed_maps = [| { Instance.task = frozen_map; start = 0 } |];
      frozen_lfmt = 100;
      frozen_completion = 100;
    }
  in
  let inst = Instance.with_jobs inst [| pj |] in
  let sol = Sched.Greedy.solve inst in
  Alcotest.(check (list string)) "feasible" []
    (Solution.feasibility_errors inst sol);
  let r = j.T.reduce_tasks.(0) in
  Alcotest.(check bool) "reduce after frozen LFMT" true
    (Solution.start_of inst sol ~task_id:r.T.task_id >= 100)

let test_greedy_zero_duration_task () =
  (* zero-length tasks are legal (e_t >= 0): they occupy nothing and
     complete instantly at their start *)
  let j = mk_job ~id:0 ~deadline:100 ~maps:[ 0; 10 ] ~reduces:[ 0 ] () in
  let inst = fresh_instance ~map_cap:1 ~reduce_cap:1 [ j ] in
  let sol = Sched.Greedy.solve inst in
  Alcotest.(check (list string)) "feasible" []
    (Solution.feasibility_errors inst sol);
  Alcotest.(check int) "on time" 0 sol.Solution.late_jobs;
  (* completion = the 10-long map; the zero reduce adds nothing *)
  let completion = Solution.job_completion inst 0 sol.Solution.starts in
  Alcotest.(check int) "completion from real work" 10 completion

let test_greedy_many_jobs_single_slot () =
  (* saturation: n serial jobs on one slot complete back to back *)
  let jobs =
    List.init 20 (fun i -> mk_job ~id:i ~deadline:1_000_000 ~maps:[ 5 ] ~reduces:[] ())
  in
  let inst = fresh_instance ~map_cap:1 jobs in
  let sol = Sched.Greedy.solve inst in
  Alcotest.(check (list string)) "feasible" []
    (Solution.feasibility_errors inst sol);
  let makespan =
    Array.fold_left
      (fun acc jdx -> max acc (Solution.job_completion inst jdx sol.Solution.starts))
      0 (Array.init (Array.length inst.Instance.jobs) Fun.id)
  in
  Alcotest.(check int) "no idle gaps" 100 makespan

let test_solution_better () =
  let mk late tard =
    { Solution.starts = [||]; late_jobs = late; total_tardiness = tard }
  in
  Alcotest.(check bool) "fewer late wins" true (Solution.better (mk 1 99) (mk 2 0));
  Alcotest.(check bool) "tie broken by tardiness" true
    (Solution.better (mk 1 5) (mk 1 9));
  Alcotest.(check bool) "equal is not better" false
    (Solution.better (mk 1 5) (mk 1 5))

let test_feasibility_catches_violations () =
  let j = mk_job ~id:0 ~est:100 ~deadline:1000 ~maps:[ 10 ] ~reduces:[ 10 ] () in
  let inst = fresh_instance [ j ] in
  (* map before est, reduce before map completes *)
  let sol = Solution.evaluate inst [| 50; 55 |] in
  let errs = Solution.feasibility_errors inst sol in
  Alcotest.(check bool) "est violation reported" true
    (List.exists (fun e -> String.length e > 0 && String.sub e 0 3 = "map") errs);
  Alcotest.(check bool) "precedence violation reported" true
    (List.exists
       (fun e -> String.length e > 6 && String.sub e 0 6 = "reduce")
       errs)

(* property: greedy solutions always pass the oracle, across random instances *)
let gen_jobs =
  QCheck.Gen.(
    let gen_job id =
      let* n_maps = int_range 1 5 in
      let* n_reduces = int_range 0 4 in
      let* maps = list_repeat n_maps (int_range 1 50) in
      let* reduces = list_repeat n_reduces (int_range 1 50) in
      let* est = int_range 0 100 in
      let* slack = int_range 0 200 in
      let total = List.fold_left ( + ) 0 maps + List.fold_left ( + ) 0 reduces in
      return (mk_job ~id ~est ~deadline:(est + total + slack) ~maps ~reduces ())
    in
    let* n = int_range 1 8 in
    flatten_l (List.init n gen_job))

let prop_greedy_feasible =
  QCheck.Test.make ~count:300 ~name:"greedy always feasible"
    (QCheck.make
       QCheck.Gen.(
         let* jobs = gen_jobs in
         let* map_cap = int_range 1 4 in
         let* reduce_cap = int_range 1 4 in
         return (fresh_instance ~map_cap ~reduce_cap jobs)))
    (fun inst ->
      List.for_all
        (fun order ->
          let sol = Sched.Greedy.solve ~order inst in
          Solution.feasibility_errors inst sol = [])
        [ Sched.Greedy.By_job_id; Sched.Greedy.Edf; Sched.Greedy.Least_laxity ])

let () =
  Alcotest.run "sched"
    [
      ( "profile",
        [
          Alcotest.test_case "empty" `Quick test_profile_empty;
          Alcotest.test_case "add/usage" `Quick test_profile_add_and_usage;
          Alcotest.test_case "fits capacity" `Quick test_profile_fits_capacity;
          Alcotest.test_case "earliest fit gaps" `Quick
            test_profile_earliest_fit_gap;
          Alcotest.test_case "zero duration" `Quick test_profile_zero_duration;
          Alcotest.test_case "copy shares no state" `Quick
            test_profile_copy_independent;
          Alcotest.test_case "bad capacity" `Quick
            test_profile_rejects_bad_capacity;
        ] );
      ( "instance",
        [ Alcotest.test_case "of_fresh_jobs" `Quick test_instance_of_fresh_jobs ]
      );
      ( "greedy",
        [
          Alcotest.test_case "single job" `Quick test_greedy_single_job;
          Alcotest.test_case "capacity" `Quick test_greedy_respects_capacity;
          Alcotest.test_case "est" `Quick test_greedy_respects_est;
          Alcotest.test_case "edf order" `Quick test_greedy_edf_order_helps;
          Alcotest.test_case "backfill AR gap" `Quick
            test_greedy_backfills_ar_gap;
          Alcotest.test_case "frozen lfmt" `Quick
            test_greedy_precedence_with_frozen_lfmt;
          Alcotest.test_case "zero duration" `Quick
            test_greedy_zero_duration_task;
          Alcotest.test_case "saturated slot" `Quick
            test_greedy_many_jobs_single_slot;
        ] );
      ( "solution",
        [
          Alcotest.test_case "better" `Quick test_solution_better;
          Alcotest.test_case "oracle catches violations" `Quick
            test_feasibility_catches_violations;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_earliest_fit_matches_oracle;
            prop_place_matches_fit_then_add;
            prop_index_sort_matches_stable_sort;
            prop_greedy_feasible;
          ] );
    ]
