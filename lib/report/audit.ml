module J = Obs.Json

type job_audit = {
  job : int;
  est : int;
  deadline : int;
  arrival : int;
  deferred : bool;
  completion : int;
  late : bool;
  first_start : int;
  queue_wait_ms : int;
  exec_ms : int;
  lateness_ms : int;
  solver_overhead_s : float;
  transitions : (int * string * string) list;
}

type check = { name : string; expected : string; actual : string; ok : bool }

type report = {
  events : (int * J.t) list;
  jobs : job_audit list;
  invokes : int;
  cache_hits : int;
  stop_reasons : (string * int) list;
  latencies_s : float array;
  n_late : int;
  total_overhead_s : float;
  classify_s : float;
  seed_s : float;
  bound_s : float;
  warm_s : float;
  list_s : float;
  sync_s : float;
  search_s : float;
  match_s : float;
  crashes : int;
  rejoins : int;
  task_failures : int;
  stragglers : int;
  lost_work_ms : int;
  checks : check list;
}

let mem = J.member
let int_field k j = Option.bind (mem k j) J.to_int_opt
let str_field k j = Option.bind (mem k j) J.to_string_opt
let bool_field k j = Option.bind (mem k j) J.to_bool_opt
let wall_field k j = Option.bind (mem "wall" j) (fun w -> mem k w)

let req what line = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "line %d: missing %s" line what)

(* mutable accumulator per job while folding over the event stream *)
type job_acc = {
  mutable a_est : int;
  mutable a_deadline : int;
  mutable a_arrival : int;
  mutable a_deferred : bool;
  mutable a_done : (int * bool * int * int * int * int * float) option;
  mutable a_transitions : (int * string * string) list;
}

let parse_lines text =
  let lines = String.split_on_char '\n' text in
  let events = ref [] in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then
        match J.of_string line with
        | Ok j -> events := (i + 1, j) :: !events
        | Error e -> failwith (Printf.sprintf "line %d: %s" (i + 1) e))
    lines;
  List.rev !events

let of_string text =
  try
    let events = parse_lines text in
    if events = [] then failwith "empty journal";
    let jobs = Hashtbl.create 64 in
    let job_acc line j =
      let id = req "job" line (int_field "job" j) in
      match Hashtbl.find_opt jobs id with
      | Some a -> a
      | None ->
          let a =
            {
              a_est = 0;
              a_deadline = 0;
              a_arrival = 0;
              a_deferred = false;
              a_done = None;
              a_transitions = [];
            }
          in
          Hashtbl.replace jobs id a;
          a
    in
    let invokes = ref 0 and cache_hits = ref 0 in
    let stop_reasons = Hashtbl.create 8 in
    let latencies = ref [] in
    let total_overhead = ref 0. in
    let seed_total = ref 0. and sync_total = ref 0. and search_total = ref 0. in
    let classify_total = ref 0. and match_total = ref 0. in
    let bound_total = ref 0. and warm_total = ref 0. and list_total = ref 0. in
    let run_end = ref None in
    let crashes = ref 0 and rejoins = ref 0 in
    let task_failures = ref 0 and stragglers = ref 0 in
    let lost_work = ref 0 in
    List.iter
      (fun (line, j) ->
        (match int_field "v" j with
        | Some (1 | 2 | 3) -> ()
        | Some v ->
            failwith (Printf.sprintf "line %d: unsupported version %d" line v)
        | None -> failwith (Printf.sprintf "line %d: missing version" line));
        match req "ev" line (str_field "ev" j) with
        | "arrival" ->
            let a = job_acc line j in
            a.a_est <- req "est" line (int_field "est" j);
            a.a_deadline <- req "deadline" line (int_field "deadline" j);
            a.a_arrival <- req "t" line (int_field "t" j)
        | "submit" ->
            let a = job_acc line j in
            if str_field "action" j = Some "defer" then a.a_deferred <- true
        | "invoke" ->
            incr invokes;
            if bool_field "cache_hit" j = Some true then incr cache_hits;
            (match
               Option.bind (mem "solve" j) (fun s -> str_field "stop_reason" s)
             with
            | Some r ->
                Hashtbl.replace stop_reasons r
                  (1 + Option.value (Hashtbl.find_opt stop_reasons r) ~default:0)
            | None -> ());
            (* Σ in seq order: bitwise-reproduces the manager's own
               accumulation of total overhead *)
            let e = req "wall.elapsed_s" line (wall_field "elapsed_s" j) in
            let e = req "wall.elapsed_s" line (J.to_float_opt e) in
            total_overhead := !total_overhead +. e;
            latencies := e :: !latencies;
            (* solver phase timers: optional (journals before they were
               recorded lack them), non-negative when present *)
            let phase k acc =
              match wall_field k j with
              | None -> ()
              | Some v -> (
                  match J.to_float_opt v with
                  | Some s when s >= 0. -> acc := !acc +. s
                  | _ ->
                      failwith
                        (Printf.sprintf
                           "line %d: wall.%s must be a non-negative number"
                           line k))
            in
            phase "classify_s" classify_total;
            phase "seed_s" seed_total;
            phase "bound_s" bound_total;
            phase "warm_s" warm_total;
            phase "list_s" list_total;
            phase "sync_s" sync_total;
            phase "search_s" search_total;
            phase "match_s" match_total
        | "job-done" ->
            let a = job_acc line j in
            a.a_done <-
              Some
                ( req "completion" line (int_field "completion" j),
                  req "late" line (bool_field "late" j),
                  req "first_start" line (int_field "first_start" j),
                  req "queue_wait_ms" line (int_field "queue_wait_ms" j),
                  req "exec_ms" line (int_field "exec_ms" j),
                  req "lateness_ms" line (int_field "lateness_ms" j),
                  Option.value ~default:0.
                    (Option.bind (wall_field "solver_overhead_s" j)
                       J.to_float_opt) )
        | "sla" ->
            let a = job_acc line j in
            let to_ = req "to" line (str_field "to" j) in
            let from = Option.value (str_field "from" j) ~default:"" in
            let t = req "t" line (int_field "t" j) in
            a.a_transitions <- (t, from, to_) :: a.a_transitions
        | "resource-crash" ->
            incr crashes;
            lost_work := !lost_work + req "lost_ms" line (int_field "lost_ms" j)
        | "resource-rejoin" -> incr rejoins
        | "task-attempt-failed" ->
            incr task_failures;
            lost_work :=
              !lost_work + req "wasted_ms" line (int_field "wasted_ms" j)
        | "straggler" ->
            incr stragglers;
            (* sanity: the inflated duration must strictly exceed nominal *)
            let nominal = req "exec_ms" line (int_field "exec_ms" j) in
            let inflated = req "inflated_ms" line (int_field "inflated_ms" j) in
            if inflated <= nominal then
              failwith
                (Printf.sprintf "line %d: straggler inflated_ms %d <= exec_ms %d"
                   line inflated nominal)
        | "run-end" -> run_end := Some (line, j)
        | "snapshot" -> ()
        | _ -> () (* forward compatibility: ignore unknown events *))
      events;
    let job_list =
      Hashtbl.fold
        (fun id a acc ->
          match a.a_done with
          | None -> acc (* job never completed: truncated journal *)
          | Some (completion, late, first_start, qw, ex, lt, ov) ->
              {
                job = id;
                est = a.a_est;
                deadline = a.a_deadline;
                arrival = a.a_arrival;
                deferred = a.a_deferred;
                completion;
                late;
                first_start;
                queue_wait_ms = qw;
                exec_ms = ex;
                lateness_ms = lt;
                solver_overhead_s = ov;
                transitions = List.rev a.a_transitions;
              }
              :: acc)
        jobs []
      |> List.sort (fun a b -> compare a.job b.job)
    in
    let n_late = List.length (List.filter (fun j -> j.late) job_list) in
    let checks =
      match !run_end with
      | None ->
          [
            {
              name = "run-end present";
              expected = "1";
              actual = "0";
              ok = false;
            };
          ]
      | Some (line, re) ->
          let ic name expected actual =
            {
              name;
              expected = string_of_int expected;
              actual = string_of_int actual;
              ok = expected = actual;
            }
          in
          let jobs_total = req "jobs_total" line (int_field "jobs_total" re) in
          let o_per_job = !total_overhead /. float_of_int jobs_total in
          let fc name expected actual =
            (* exact equality on purpose: journal floats round-trip, and the
               recomputation replays the very same additions in the same
               order, so any difference is a real bookkeeping bug *)
            {
              name;
              expected = Printf.sprintf "%.17g" expected;
              actual = Printf.sprintf "%.17g" actual;
              ok = Float.equal expected actual;
            }
          in
          [
            ic "jobs_total (run-end = completed jobs seen)" jobs_total
              (List.length job_list);
            ic "n_late (run-end = recomputed Σ N_j)"
              (req "n_late" line (int_field "n_late" re))
              n_late;
            ic "solves (run-end = invoke events)"
              (req "solves" line (int_field "solves" re))
              !invokes;
            ic "makespan_ms (run-end = max completion)"
              (req "makespan_ms" line (int_field "makespan_ms" re))
              (List.fold_left (fun m j -> max m j.completion) 0 job_list);
            fc "total_overhead_s (run-end = Σ invoke elapsed)"
              (req "wall.total_overhead_s" line
                 (Option.bind
                    (wall_field "total_overhead_s" re)
                    J.to_float_opt))
              !total_overhead;
            fc "o_per_job_s (run-end = Σ elapsed / jobs)"
              (req "wall.o_per_job_s" line
                 (Option.bind (wall_field "o_per_job_s" re) J.to_float_opt))
              o_per_job;
          ]
          @
          (* fault totals: present on every run-end line from v2 on; absent from
             archived v1 journals, whose fault counters are necessarily 0 *)
          (match int_field "crashes" re with
          | None ->
              if !crashes + !rejoins + !task_failures + !stragglers > 0 then
                [
                  {
                    name = "fault events require v2 run-end totals";
                    expected = "crashes field present";
                    actual = "absent";
                    ok = false;
                  };
                ]
              else []
          | Some c ->
              [
                ic "crashes (run-end = resource-crash events)" c !crashes;
                ic "rejoins (run-end = resource-rejoin events)"
                  (req "rejoins" line (int_field "rejoins" re))
                  !rejoins;
                ic "task_failures (run-end = task-attempt-failed events)"
                  (req "task_failures" line (int_field "task_failures" re))
                  !task_failures;
                ic "stragglers (run-end = straggler events)"
                  (req "stragglers" line (int_field "stragglers" re))
                  !stragglers;
                ic "lost_work_ms (run-end = Σ lost_ms + wasted_ms)"
                  (req "lost_work_ms" line (int_field "lost_work_ms" re))
                  !lost_work;
              ])
    in
    Ok
      {
        events;
        jobs = job_list;
        invokes = !invokes;
        cache_hits = !cache_hits;
        stop_reasons =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) stop_reasons []
          |> List.sort compare;
        latencies_s = Array.of_list (List.rev !latencies);
        n_late;
        total_overhead_s = !total_overhead;
        classify_s = !classify_total;
        seed_s = !seed_total;
        bound_s = !bound_total;
        warm_s = !warm_total;
        list_s = !list_total;
        sync_s = !sync_total;
        search_s = !search_total;
        match_s = !match_total;
        crashes = !crashes;
        rejoins = !rejoins;
        task_failures = !task_failures;
        stragglers = !stragglers;
        lost_work_ms = !lost_work;
        checks;
      }
  with Failure msg -> Error msg

let of_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text

let checks_ok r = List.for_all (fun c -> c.ok) r.checks

(* exact empirical quantile (nearest-rank, the same ceil(q·n) convention as
   Obs.Metrics.quantile) over the full latency sample *)
let latency_quantile r q =
  let n = Array.length r.latencies_s in
  if n = 0 then nan
  else begin
    let sorted = Array.copy r.latencies_s in
    Array.sort compare sorted;
    let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
    sorted.(rank - 1)
  end

let render r =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf
       "journal: %d events, %d jobs completed, %d invocations (%d plan-cache \
        hits)\n"
       (List.length r.events) (List.length r.jobs) r.invokes r.cache_hits);
  if r.crashes + r.rejoins + r.task_failures + r.stragglers > 0 then
    add
      (Printf.sprintf
         "chaos: %d crashes (%d rejoins), %d failed attempts, %d stragglers, \
          %.1fs of slot-time lost\n"
         r.crashes r.rejoins r.task_failures r.stragglers
         (float_of_int r.lost_work_ms /. 1000.));
  add
    (Printf.sprintf
       "decision latency: p50 %ss, p99 %ss, max %ss over %d invocations\n\n"
       (Table.fmt_float ~decimals:4 (latency_quantile r 0.5))
       (Table.fmt_float ~decimals:4 (latency_quantile r 0.99))
       (Table.fmt_float ~decimals:4 (latency_quantile r 1.0))
       (Array.length r.latencies_s));
  let f = Table.fmt_float ~decimals:4 in
  if r.seed_s +. r.sync_s +. r.search_s > 0. then
    add
      (Printf.sprintf
         "solver phases: seed %ss (bound %ss, warm completion %ss, list \
          schedules %ss), sync %ss, search %ss of %ss total overhead\n"
         (f r.seed_s) (f r.bound_s) (f r.warm_s) (f r.list_s) (f r.sync_s)
         (f r.search_s) (f r.total_overhead_s));
  if r.classify_s +. r.match_s > 0. then
    add
      (Printf.sprintf
         "manager phases: classify and instance %ss, matchmaking and install \
          %ss, solver glue %ss\n"
         (f r.classify_s) (f r.match_s)
         (f
            (r.total_overhead_s -. r.classify_s -. r.match_s -. r.seed_s
           -. r.sync_s -. r.search_s)));
  if r.seed_s +. r.sync_s +. r.search_s +. r.classify_s +. r.match_s > 0. then
    add "\n";
  if r.stop_reasons <> [] then
    add
      (Table.render ~title:"solver stop reasons"
         ~headers:[ "stop reason"; "solves" ]
         ~rows:
           (List.map
              (fun (k, v) -> [ k; string_of_int v ])
              r.stop_reasons)
         ());
  add
    (Table.render ~title:"per-job outcome"
       ~headers:
         [
           "job";
           "est";
           "deadline";
           "completion";
           "late";
           "queue wait (s)";
           "exec (s)";
           "solver (s)";
           "sla flips";
         ]
       ~rows:
         (List.map
            (fun j ->
              [
                string_of_int j.job;
                string_of_int j.est;
                string_of_int j.deadline;
                string_of_int j.completion;
                (if j.late then "LATE" else "ok");
                Table.fmt_float ~decimals:1
                  (float_of_int j.queue_wait_ms /. 1000.);
                Table.fmt_float ~decimals:1 (float_of_int j.exec_ms /. 1000.);
                Table.fmt_float ~decimals:3 j.solver_overhead_s;
                string_of_int (List.length j.transitions);
              ])
            r.jobs)
       ());
  let late = List.filter (fun j -> j.late) r.jobs in
  if late <> [] then
    add
      (Table.render ~title:"lateness attribution (late jobs)"
         ~headers:
           [
             "job";
             "lateness (s)";
             "queue wait (s)";
             "exec (s)";
             "solver (s)";
             "dominant";
           ]
         ~rows:
           (List.map
              (fun j ->
                let qw = float_of_int j.queue_wait_ms /. 1000. in
                let ex = float_of_int j.exec_ms /. 1000. in
                let dominant =
                  (* solver overhead is wall seconds of real compute, not
                     virtual time; it dominates only when it exceeds the
                     whole virtual lateness *)
                  if j.solver_overhead_s > float_of_int j.lateness_ms /. 1000.
                  then "solver overhead"
                  else if qw >= ex then "queue wait"
                  else "execution"
                in
                [
                  string_of_int j.job;
                  Table.fmt_float ~decimals:1
                    (float_of_int j.lateness_ms /. 1000.);
                  Table.fmt_float ~decimals:1 qw;
                  Table.fmt_float ~decimals:1 ex;
                  Table.fmt_float ~decimals:3 j.solver_overhead_s;
                  dominant;
                ])
              late)
         ());
  add
    (Table.render ~title:"cross-checks (journal vs recomputed)"
       ~headers:[ "check"; "journal"; "recomputed"; "ok" ]
       ~rows:
         (List.map
            (fun c ->
              [ c.name; c.expected; c.actual; (if c.ok then "ok" else "FAIL") ])
            r.checks)
       ());
  Buffer.contents buf

let render_timeline r job_id =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add (Printf.sprintf "timeline for job %d:\n" job_id);
  List.iter
    (fun (_, j) ->
      let mentions =
        match int_field "job" j with
        | Some id -> id = job_id
        | None -> (
            (* invoke events list arrivals instead of a single job field *)
            match mem "arrived" j with
            | Some (J.List l) ->
                List.exists (fun v -> J.to_int_opt v = Some job_id) l
            | _ -> false)
      in
      if mentions then
        match (int_field "t" j, str_field "ev" j) with
        | Some t, Some ev ->
            add (Printf.sprintf "  %10dms  %-8s  %s\n" t ev (J.to_string j))
        | _ -> ())
    r.events;
  Buffer.contents buf
