(* Tests for the observability layer: histogram bucket maths, snapshot
   merging, Chrome-trace span nesting/ordering, and — most importantly —
   that instrumentation is a pure side channel: a fixed-seed solve with
   tracing + metrics enabled returns bit-identical schedules and search
   statistics to the uninstrumented run. *)

module M = Obs.Metrics
module Tr = Obs.Trace
module T = Mapreduce.Types

(* --- histogram buckets -------------------------------------------------- *)

let test_bucket_edges () =
  Alcotest.(check int) "zero" 0 (M.bucket_of 0.);
  Alcotest.(check int) "negative" 0 (M.bucket_of (-3.5));
  Alcotest.(check int) "one" 34 (M.bucket_of 1.);
  Alcotest.(check int) "below one" 33 (M.bucket_of 0.75);
  Alcotest.(check int) "two" 35 (M.bucket_of 2.);
  Alcotest.(check int) "within bucket" 35 (M.bucket_of 3.9);
  Alcotest.(check int) "2^-33" 1 (M.bucket_of (Float.pow 2. (-33.)));
  Alcotest.(check int) "tiny clamps low" 1 (M.bucket_of (Float.pow 2. (-60.)));
  Alcotest.(check int) "2^31" 65 (M.bucket_of (Float.pow 2. 31.));
  Alcotest.(check int) "huge clamps high" 65 (M.bucket_of (Float.pow 2. 50.));
  Alcotest.(check bool)
    "bucket 0 lower bound" true
    (M.bucket_lower_bound 0 = neg_infinity);
  Alcotest.(check (float 0.)) "bucket 34 lower bound" 1. (M.bucket_lower_bound 34);
  Alcotest.(check (float 0.))
    "bucket 1 lower bound"
    (Float.pow 2. (-33.))
    (M.bucket_lower_bound 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Metrics.bucket_lower_bound: bucket out of range")
    (fun () -> ignore (M.bucket_lower_bound M.n_buckets))

let test_observe_buckets () =
  let r = M.create () in
  let h = M.histogram r "h" in
  List.iter (M.observe h) [ 1.0; 1.5; 4.0; 0.; -2. ];
  let snap = M.snapshot r in
  match M.find_histo snap "h" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some d ->
      Alcotest.(check int) "count" 5 d.M.count;
      Alcotest.(check (float 1e-9)) "sum" 4.5 d.M.sum;
      Alcotest.(check (float 0.)) "min" (-2.) d.M.vmin;
      Alcotest.(check (float 0.)) "max" 4.0 d.M.vmax;
      (* two sub-zero values in bucket 0, 1.0 and 1.5 in bucket 34, 4.0 in
         bucket 36; occupancy list is sorted and sparse *)
      Alcotest.(check (list (pair int int)))
        "buckets"
        [ (0, 2); (34, 2); (36, 1) ]
        d.M.buckets

(* --- merge -------------------------------------------------------------- *)

let test_counter_merge () =
  let a = M.create () and b = M.create () in
  M.add (M.counter a "x") 3;
  M.add (M.counter a "y") 1;
  M.add (M.counter b "x") 4;
  M.add (M.counter b "z") 5;
  M.set_gauge (M.gauge a "g") 1.0;
  M.set_gauge (M.gauge b "g") 2.0;
  let m = M.merge (M.snapshot a) (M.snapshot b) in
  Alcotest.(check (list (pair string int)))
    "counters add and stay sorted"
    [ ("x", 7); ("y", 1); ("z", 5) ]
    m.M.counters;
  Alcotest.(check (list (pair string (float 0.))))
    "gauges: right wins"
    [ ("g", 2.0) ]
    m.M.gauges;
  let again = M.merge_all [ M.snapshot a; M.snapshot b; M.empty ] in
  Alcotest.(check (list (pair string int)))
    "merge_all agrees" m.M.counters again.M.counters

let test_histo_merge () =
  let a = M.create () and b = M.create () in
  List.iter (M.observe (M.histogram a "h")) [ 1.0; 4.0 ];
  M.observe (M.histogram b "h") 0.25;
  let m = M.merge (M.snapshot a) (M.snapshot b) in
  match M.find_histo m "h" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some d ->
      Alcotest.(check int) "count" 3 d.M.count;
      Alcotest.(check (float 1e-9)) "sum" 5.25 d.M.sum;
      Alcotest.(check (float 0.)) "min" 0.25 d.M.vmin;
      Alcotest.(check (float 0.)) "max" 4.0 d.M.vmax;
      Alcotest.(check (list (pair int int)))
        "bucketwise sum"
        [ (32, 1); (34, 1); (36, 1) ]
        d.M.buckets

let test_kind_mismatch () =
  let r = M.create () in
  ignore (M.counter r "x");
  Alcotest.check_raises "histogram under a counter name"
    (Invalid_argument "Metrics: \"x\" already registered as another kind")
    (fun () -> ignore (M.histogram r "x"))

(* --- trace serialization ------------------------------------------------- *)

(* Pull a float field out of one serialized event line. *)
let field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat in
  let n = String.length line in
  let rec find i =
    if i + plen > n then None
    else if String.sub line i plen = pat then begin
      let j = ref (i + plen) in
      let stop = ref false in
      let b = Buffer.create 16 in
      while (not !stop) && !j < n do
        match line.[!j] with
        | ',' | '}' -> stop := true
        | c ->
            Buffer.add_char b c;
            incr j
      done;
      float_of_string_opt (Buffer.contents b)
    end
    else find (i + 1)
  in
  find 0

let test_span_nesting () =
  Fun.protect ~finally:Tr.stop (fun () ->
      Tr.start ();
      let v =
        Tr.with_span ~cat:"t" "outer" (fun () ->
            Tr.with_span ~cat:"t" "inner" (fun () -> ());
            Tr.instant ~cat:"t" "mark" ~args:[ ("k", Tr.Int 7) ];
            17)
      in
      Tr.stop ();
      Alcotest.(check int) "with_span is transparent" 17 v;
      Alcotest.(check int) "three events recorded" 3 (Tr.events_recorded ());
      let dump = Tr.dump_string () in
      let lines =
        String.split_on_char '\n' dump |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check string) "opens a JSON array" "[" (List.hd lines);
      Alcotest.(check string)
        "closes the array" "]"
        (List.nth lines (List.length lines - 1));
      let event_lines =
        List.filter (fun l -> String.length l > 0 && l.[0] = '{') lines
      in
      (* process_name metadata + the three recorded events *)
      Alcotest.(check int) "one line per event" 4 (List.length event_lines);
      let find name =
        match
          List.find_opt
            (fun l ->
              let pat = Printf.sprintf "\"name\":%S" name in
              let rec has i =
                i + String.length pat <= String.length l
                && (String.sub l i (String.length pat) = pat || has (i + 1))
              in
              has 0)
            event_lines
        with
        | Some l -> l
        | None -> Alcotest.failf "no %S event in dump" name
      in
      let outer = find "outer" and inner = find "inner" in
      let f line key =
        match field line key with
        | Some v -> v
        | None -> Alcotest.failf "missing %s in %s" key line
      in
      (* sorted by start time: outer starts first even though it is emitted
         last (complete events are recorded at span end) *)
      let ts = List.filter_map (fun l -> field l "ts") event_lines in
      Alcotest.(check bool)
        "events sorted by ts" true
        (List.sort compare ts = ts);
      Alcotest.(check bool)
        "inner starts after outer" true
        (f inner "ts" >= f outer "ts");
      Alcotest.(check bool)
        "inner ends before outer" true
        (f inner "ts" +. f inner "dur" <= f outer "ts" +. f outer "dur");
      (* instants carry the mandated "s" scope field *)
      let mark = find "mark" in
      Alcotest.(check bool)
        "instant has scope" true
        (let rec has i =
           i + 8 <= String.length mark
           && (String.sub mark i 8 = {|"s":"t",|} || has (i + 1))
         in
         has 0))

let test_disabled_records_nothing () =
  Fun.protect ~finally:Tr.stop (fun () ->
      Tr.start ();
      Tr.stop ();
      Alcotest.(check bool) "disabled" false (Tr.enabled ());
      Tr.with_span "ghost" (fun () -> ());
      Tr.instant "ghost-i";
      Tr.counter "ghost-c" [ ("v", 1.) ];
      Alcotest.(check int) "nothing recorded" 0 (Tr.events_recorded ()))

let test_event_limit () =
  Fun.protect ~finally:Tr.stop (fun () ->
      Tr.start ~limit:3 ();
      for i = 0 to 9 do
        Tr.instant (Printf.sprintf "e%d" i)
      done;
      Tr.stop ();
      Alcotest.(check int) "capped at limit" 3 (Tr.events_recorded ());
      let dump = Tr.dump_string () in
      let has pat =
        let n = String.length pat in
        let rec go i =
          i + n <= String.length dump
          && (String.sub dump i n = pat || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "dropped events reported" true
        (has {|"events_dropped"|} && has {|"dropped":7|}))

(* --- instrumentation is a pure side channel ------------------------------ *)

let task_counter = ref 0

let mk_job ~id ?(arrival = 0) ~deadline ~maps ~reduces () =
  let fresh kind e =
    incr task_counter;
    {
      T.task_id = !task_counter;
      job_id = id;
      kind;
      exec_time = e;
      capacity_req = 1;
    }
  in
  {
    T.id;
    arrival;
    earliest_start = arrival;
    deadline;
    map_tasks = Array.of_list (List.map (fresh T.Map_task) maps);
    reduce_tasks = Array.of_list (List.map (fresh T.Reduce_task) reduces);
  }

(* Enough contention that the solver really searches (B&B + propagators). *)
let contended_instance () =
  let jobs =
    List.init 6 (fun i ->
        mk_job ~id:i
          ~deadline:(50 + (7 * i))
          ~maps:[ 10 + i; 12; 9 ]
          ~reduces:[ 11; 8 + i ]
          ())
  in
  Sched.Instance.of_fresh_jobs ~now:0 ~map_capacity:2 ~reduce_capacity:2 jobs


let test_instrumented_run_bit_identical () =
  task_counter := 0;
  let inst = contended_instance () in
  (* a generous wall limit makes [fail_limit] the binding cutoff: a
     wall-clock cutoff would make node counts depend on machine speed and
     metering overhead, which is exactly what this test must not measure *)
  let options = { Cp.Solver.default_options with time_limit = 30.0 } in
  let plain_sol, plain_stats = Cold.Solver.solve ~options inst in
  task_counter := 0;
  let inst' = contended_instance () in
  Fun.protect ~finally:Tr.stop (fun () ->
      Tr.start ();
      let obs_sol, obs_stats =
        Cold.Solver.solve ~options:{ options with instrument = true } inst'
      in
      Tr.stop ();
      Alcotest.(check int)
        "late jobs" plain_sol.Sched.Solution.late_jobs
        obs_sol.Sched.Solution.late_jobs;
      Alcotest.(check int)
        "tardiness" plain_sol.Sched.Solution.total_tardiness
        obs_sol.Sched.Solution.total_tardiness;
      Alcotest.(check (array int))
        "identical start times" plain_sol.Sched.Solution.starts
        obs_sol.Sched.Solution.starts;
      Alcotest.(check int)
        "same node count" plain_stats.Cp.Solver.nodes obs_stats.Cp.Solver.nodes;
      Alcotest.(check int)
        "same failure count" plain_stats.Cp.Solver.failures
        obs_stats.Cp.Solver.failures;
      Alcotest.(check bool)
        "plain run carries no metrics" true
        (plain_stats.Cp.Solver.metrics = None);
      match obs_stats.Cp.Solver.metrics with
      | None -> Alcotest.fail "instrumented run lost its metrics"
      | Some snap ->
          Alcotest.(check bool)
            "propagations counted" true
            (match M.find_counter snap "store/propagations" with
            | Some n -> n > 0
            | None -> false);
          Alcotest.(check bool)
            "per-propagator fires present" true
            (List.exists
               (fun (name, v) ->
                 String.length name > 5
                 && String.sub name 0 5 = "prop/"
                 && v > 0)
               snap.M.counters))

(* --- end-to-end: manager + search + simulator spans ---------------------- *)

let test_trace_covers_all_layers () =
  task_counter := 0;
  let jobs =
    List.init 8 (fun i ->
        mk_job ~id:i ~arrival:(i * 5)
          ~deadline:((i * 5) + 55 + (3 * i))
          ~maps:[ 20 + i; 25; 18 ]
          ~reduces:[ 22; 15 ]
          ())
  in
  let cluster = T.uniform_cluster ~m:2 ~map_capacity:2 ~reduce_capacity:2 in
  let config =
    {
      Mrcp.Manager.default_config with
      Mrcp.Manager.solver =
        { Cp.Solver.default_options with instrument = true };
    }
  in
  Fun.protect ~finally:Tr.stop (fun () ->
      Tr.start ();
      let driver = Opensim.Driver.of_mrcp (Mrcp.Manager.create ~cluster config) in
      let r = Opensim.Simulator.run ~validate:true ~cluster ~driver ~jobs () in
      Tr.stop ();
      Alcotest.(check int) "all jobs ran" 8 r.Opensim.Simulator.jobs_total;
      Alcotest.(check bool)
        "simulator counted events" true
        (r.Opensim.Simulator.events_executed > 0);
      let dump = Tr.dump_string () in
      let has pat =
        let n = String.length pat in
        let rec go i =
          i + n <= String.length dump
          && (String.sub dump i n = pat || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun pat ->
          Alcotest.(check bool) (pat ^ " span present") true (has pat))
        [
          {|"name":"invoke"|};      (* manager invocation *)
          {|"name":"search"|};      (* B&B search phase *)
          {|"name":"propagate"|};   (* store propagation inside search *)
          {|"name":"simulate"|};    (* whole-simulation span *)
          {|"name":"job-done"|};    (* per-job completion instant *)
        ];
      match r.Opensim.Simulator.metrics with
      | None -> Alcotest.fail "instrumented manager returned no metrics"
      | Some snap ->
          Alcotest.(check bool)
            "manager invocations counted" true
            (match M.find_counter snap "manager/invocations" with
            | Some n -> n > 0
            | None -> false);
          Alcotest.(check bool)
            "solver solves merged in" true
            (match M.find_counter snap "solver/solves" with
            | Some n -> n > 0
            | None -> false))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "observe buckets" `Quick test_observe_buckets;
          Alcotest.test_case "counter merge" `Quick test_counter_merge;
          Alcotest.test_case "histogram merge" `Quick test_histo_merge;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled is silent" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "event limit" `Quick test_event_limit;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "instrumented run bit-identical" `Quick
            test_instrumented_run_bit_identical;
          Alcotest.test_case "trace covers all layers" `Slow
            test_trace_covers_all_layers;
        ] );
    ]
