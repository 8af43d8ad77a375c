module T = Mapreduce.Types
module Chaos = Opensim.Chaos
module Rng = Simrand.Rng
module J = Obs.Json

type scenario = {
  seed : int;
  m : int;
  map_capacity : int;
  reduce_capacity : int;
  manager : Opensim.Driver.kind;
  jobs : T.job list;
  faults : Chaos.plan;
}

type mutation = No_mutation | Drop_attempt_failed | Drop_resource_lost

let mutation_to_string = function
  | No_mutation -> "none"
  | Drop_attempt_failed -> "drop-attempt-failed"
  | Drop_resource_lost -> "drop-resource-lost"

let mutation_of_string = function
  | "none" -> No_mutation
  | "drop-attempt-failed" -> Drop_attempt_failed
  | "drop-resource-lost" -> Drop_resource_lost
  | s -> failwith ("unknown mutation " ^ s)

(* --- generation --------------------------------------------------------- *)

(* Small instances on purpose: the invariants are size-independent, and
   violations shrink faster from a small starting point.  Times are in ms
   but drawn in coarse 100 ms grains so schedules stay readable. *)
let generate ~seed =
  let rng = Rng.create seed in
  let m = 1 + Rng.int rng 3 in
  let map_capacity = 1 + Rng.int rng 2 in
  let reduce_capacity = 1 + Rng.int rng 2 in
  let manager =
    match Rng.int rng 6 with
    | 0 -> Opensim.Driver.Min_edf_wc
    | 1 -> Opensim.Driver.Edf_wc
    | 2 -> Opensim.Driver.Fcfs_wc
    | _ -> Opensim.Driver.Mrcp_rm
  in
  let n_jobs = 1 + Rng.int rng 7 in
  let task_counter = ref 0 in
  let jobs =
    List.init n_jobs (fun i ->
        let arrival = Rng.int rng 5_000 in
        let est = arrival + (if Rng.int rng 3 = 0 then Rng.int rng 4_000 else 0) in
        let mk kind =
          incr task_counter;
          {
            T.task_id = !task_counter;
            job_id = i;
            kind;
            exec_time = 100 * (1 + Rng.int rng 20);
            capacity_req = 1;
          }
        in
        let map_tasks = Array.init (1 + Rng.int rng 4) (fun _ -> mk T.Map_task) in
        let reduce_tasks = Array.init (Rng.int rng 3) (fun _ -> mk T.Reduce_task) in
        let sum = Array.fold_left (fun acc t -> acc + t.T.exec_time) 0 in
        let work = sum map_tasks + sum reduce_tasks in
        let deadline = est + work + Rng.int rng (work + 2_000) in
        { T.id = i; arrival; earliest_start = est; deadline; map_tasks; reduce_tasks })
  in
  let cluster = T.uniform_cluster ~m ~map_capacity ~reduce_capacity in
  let cfg =
    {
      Chaos.default with
      Chaos.crash_rate = 0.02;         (* ~1 crash per resource per 50 s *)
      straggler_p = 0.15;
      task_failure_p = 0.15;
    }
  in
  let faults = Chaos.materialize cfg ~cluster ~jobs ~seed:(seed lxor 0x5157) in
  { seed; m; map_capacity; reduce_capacity; manager; jobs; faults }

(* --- execution ---------------------------------------------------------- *)

(* deterministic cutoffs for the plan-based managers: bounded fail/task
   limits with an effectively infinite wall budget, so the search never
   depends on the clock *)
let make_driver scenario cluster ~journal =
  Opensim.Driver.make scenario.manager ~cluster
    {
      Mrcp.Manager.solver =
        {
          Cp.Solver.default_options with
          Cp.Solver.exact_task_limit = 400;
          fail_limit = 2_000;
          time_limit = 1e9;
        };
      validate = true;
      deferral_window = Some 2_000;
      journal = Some journal;
    }

let mutate mutation (d : Opensim.Driver.t) =
  match mutation with
  | No_mutation -> d
  | Drop_attempt_failed ->
      (* the manager is never told the attempt died: the task silently
         vanishes from the system — the completeness oracle must object *)
      { d with Opensim.Driver.task_attempt_failed = (fun ~now:_ ~task_id:_ -> ()) }
  | Drop_resource_lost ->
      (* the manager keeps planning onto the dead resource and believes the
         killed attempts are still running *)
      {
        d with
        Opensim.Driver.resource_lost = (fun ~now:_ ~resource_id:_ ~lost:_ -> ());
      }

type outcome = {
  fingerprint : string;  (** canonical journal digest *)
  journal : string;  (** raw JSONL text *)
  results : Opensim.Simulator.results;
}

(* One full simulation of the scenario under the invariant oracle.  [Error]
   carries the violation message (a [Failure] raised by the simulator's
   checks, the manager's validation, or the driver reconciliation). *)
let run_once ?(mutation = No_mutation) scenario =
  let cluster =
    T.uniform_cluster ~m:scenario.m ~map_capacity:scenario.map_capacity
      ~reduce_capacity:scenario.reduce_capacity
  in
  let journal = Obs.Journal.create () in
  let driver = mutate mutation (make_driver scenario cluster ~journal) in
  match
    Opensim.Simulator.run ~validate:true ~journal ~cluster
      ~chaos:scenario.faults ~driver ~jobs:scenario.jobs ()
  with
  | results ->
      let text = Obs.Journal.to_string journal in
      Ok { fingerprint = Obs.Journal.fingerprint text; journal = text; results }
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error ("invalid_arg: " ^ msg)

type verdict =
  | Pass of { fingerprint : string }
  | Violation of { message : string }

(* The audit tool independently recomputes the run totals (Σ N_j, O, fault
   counters, lost work) from the per-event lines and cross-checks them
   against the run-end record with exact equality.  The overhead half of
   that contract only holds for managers that journal their invocations
   (MRCP-RM); the slot-scheduler baselines journal no "invoke" lines. *)
let audit scenario (o : outcome) =
  if not (Opensim.Driver.plan_based scenario.manager) then None
  else
    match Report.Audit.of_string o.journal with
    | Error e -> Some ("journal does not parse: " ^ e)
    | Ok r ->
        if Report.Audit.checks_ok r then None
        else
          Some
            (String.concat "; "
               (List.filter_map
                  (fun (c : Report.Audit.check) ->
                    if c.Report.Audit.ok then None
                    else
                      Some
                        (Printf.sprintf "audit: %s: run-end %s <> recomputed %s"
                           c.Report.Audit.name c.Report.Audit.expected
                           c.Report.Audit.actual))
                  r.Report.Audit.checks))

(* The full check: run the scenario twice and demand (a) no invariant
   violation, (b) byte-identical canonical journals across the two runs
   (same-seed determinism), (c) a clean audit of the journal's totals. *)
let check ?(mutation = No_mutation) scenario =
  match run_once ~mutation scenario with
  | Error msg -> Violation { message = msg }
  | Ok o1 -> (
      match audit scenario o1 with
      | Some msg -> Violation { message = msg }
      | None -> (
          match run_once ~mutation scenario with
          | Error msg ->
              Violation
                { message = "non-deterministic: second run failed: " ^ msg }
          | Ok o2 ->
              if o1.fingerprint <> o2.fingerprint then
                Violation
                  {
                    message =
                      Printf.sprintf
                        "non-deterministic: journal fingerprints differ (%s \
                         vs %s)"
                        o1.fingerprint o2.fingerprint;
                  }
              else Pass { fingerprint = o1.fingerprint }))

(* --- shrinking ---------------------------------------------------------- *)

(* Candidate reductions, coarsest first.  Each is scenario -> scenario list
   (all single-step reductions of that kind). *)

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let drop_job_candidates s =
  if List.length s.jobs <= 1 then []
  else List.init (List.length s.jobs) (fun n -> { s with jobs = drop_nth n s.jobs })

let drop_fault_candidates s =
  List.init (List.length s.faults) (fun n ->
      { s with faults = drop_nth n s.faults })

(* round an execution time down to the next coarser grain (1 s, else 100 ms)
   without reaching 0; None if already minimal *)
let round_time t =
  if t > 1_000 && t mod 1_000 <> 0 then Some (t - (t mod 1_000))
  else if t > 100 && t mod 100 <> 0 then Some (t - (t mod 100))
  else None

let round_job (j : T.job) =
  let changed = ref false in
  let round_task (t : T.task) =
    match round_time t.T.exec_time with
    | Some e ->
        changed := true;
        { t with T.exec_time = e }
    | None -> t
  in
  let map_tasks = Array.map round_task j.T.map_tasks in
  let reduce_tasks = Array.map round_task j.T.reduce_tasks in
  if !changed then Some { j with T.map_tasks; reduce_tasks } else None

let round_candidates s =
  List.concat
    (List.mapi
       (fun n j ->
         match round_job j with
         | Some j' ->
             [ { s with jobs = List.mapi (fun i x -> if i = n then j' else x) s.jobs } ]
         | None -> [])
       s.jobs)

type shrink_result = {
  minimal : scenario;
  violation : string;
  steps : int;  (** successful reductions applied *)
  runs : int;  (** scenarios executed while shrinking *)
}

(* Greedy delta-debugging: repeatedly try every single-step reduction (drop
   a job, drop a fault, round a duration) and restart from the first one
   that still violates *some* invariant (not necessarily the same message:
   the minimal repro for the underlying bug is what we are after).  [fuel]
   bounds the number of simulations. *)
let shrink ?(mutation = No_mutation) ?(fuel = 400) scenario ~violation =
  let runs = ref 0 in
  let steps = ref 0 in
  let still_fails s =
    if !runs >= fuel then None
    else begin
      incr runs;
      match run_once ~mutation s with
      | Error msg -> Some msg
      | Ok _ -> None
    end
  in
  let rec loop s violation =
    let candidates =
      drop_job_candidates s @ drop_fault_candidates s @ round_candidates s
    in
    let rec try_each = function
      | [] -> { minimal = s; violation; steps = !steps; runs = !runs }
      | c :: rest -> (
          if !runs >= fuel then { minimal = s; violation; steps = !steps; runs = !runs }
          else
            match still_fails c with
            | Some msg ->
                incr steps;
                loop c msg
            | None -> try_each rest)
    in
    try_each candidates
  in
  loop scenario violation

(* --- repro files -------------------------------------------------------- *)

let task_to_json (t : T.task) =
  J.Obj [ ("id", J.Int t.T.task_id); ("e", J.Int t.T.exec_time) ]

let task_of_json ~job_id ~kind j =
  let get k = Option.bind (J.member k j) J.to_int_opt in
  match (get "id", get "e") with
  | Some task_id, Some exec_time ->
      { T.task_id; job_id; kind; exec_time; capacity_req = 1 }
  | _ -> failwith "task: missing id/e"

let job_to_json (j : T.job) =
  J.Obj
    [
      ("id", J.Int j.T.id);
      ("arrival", J.Int j.T.arrival);
      ("est", J.Int j.T.earliest_start);
      ("deadline", J.Int j.T.deadline);
      ("maps", J.List (Array.to_list (Array.map task_to_json j.T.map_tasks)));
      ( "reduces",
        J.List (Array.to_list (Array.map task_to_json j.T.reduce_tasks)) );
    ]

let job_of_json j =
  let geti k =
    match Option.bind (J.member k j) J.to_int_opt with
    | Some v -> v
    | None -> failwith ("job: missing " ^ k)
  in
  let tasks k kind =
    match J.member k j with
    | Some (J.List l) ->
        Array.of_list (List.map (task_of_json ~job_id:(geti "id") ~kind) l)
    | _ -> failwith ("job: missing " ^ k)
  in
  {
    T.id = geti "id";
    arrival = geti "arrival";
    earliest_start = geti "est";
    deadline = geti "deadline";
    map_tasks = tasks "maps" T.Map_task;
    reduce_tasks = tasks "reduces" T.Reduce_task;
  }

let to_json s =
  J.Obj
    [
      ("seed", J.Int s.seed);
      ("m", J.Int s.m);
      ("map_capacity", J.Int s.map_capacity);
      ("reduce_capacity", J.Int s.reduce_capacity);
      ("manager", J.String (Opensim.Driver.kind_to_string s.manager));
      ("jobs", J.List (List.map job_to_json s.jobs));
      ("faults", J.List (List.map Chaos.fault_to_json s.faults));
    ]

let of_json j =
  let geti k =
    match Option.bind (J.member k j) J.to_int_opt with
    | Some v -> v
    | None -> failwith ("scenario: missing " ^ k)
  in
  let gets k =
    match Option.bind (J.member k j) J.to_string_opt with
    | Some v -> v
    | None -> failwith ("scenario: missing " ^ k)
  in
  let list k =
    match J.member k j with
    | Some (J.List l) -> l
    | _ -> failwith ("scenario: missing " ^ k)
  in
  {
    seed = geti "seed";
    m = geti "m";
    map_capacity = geti "map_capacity";
    reduce_capacity = geti "reduce_capacity";
    manager =
      (let name = gets "manager" in
       match Opensim.Driver.kind_of_string name with
       | Some kind -> kind
       | None -> failwith ("unknown manager " ^ name));
    jobs = List.map job_of_json (list "jobs");
    faults = List.map Chaos.fault_of_json (list "faults");
  }

let save s ~path =
  let oc = open_out path in
  output_string oc (J.to_string (to_json s));
  output_char oc '\n';
  close_out oc

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match J.of_string text with
      | Error e -> Error ("repro file: " ^ e)
      | Ok j -> ( try Ok (of_json j) with Failure msg -> Error msg))

let pp_scenario fmt s =
  Format.fprintf fmt
    "@[<v>scenario seed=%d %s m=%d caps=(%d,%d) jobs=%d tasks=%d faults=%d@,%a@]"
    s.seed
    (Opensim.Driver.kind_to_string s.manager)
    s.m s.map_capacity s.reduce_capacity (List.length s.jobs)
    (List.fold_left (fun acc j -> acc + T.task_count j) 0 s.jobs)
    (List.length s.faults)
    (Format.pp_print_list Chaos.pp_fault)
    s.faults
