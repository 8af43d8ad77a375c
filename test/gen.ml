(* Shared instance builders and QCheck generators for the test suite.

   Every test binary used to carry its own ad-hoc [mk_task]/[mk_job]/counter
   trio; they are unified here.  The random generators produce scaled-down
   instances with the *shape* of the paper's Table 3/4 workloads — multi-task
   map phases, optional reduce phases, AR jobs with s_j > arrival, deadlines
   derived from est + a contention factor over the execution time — so qcheck
   counter-examples stay small and readable while still covering all three
   solver paths (seed-optimal, exact B&B, the list-schedule leaf). *)

module T = Mapreduce.Types
module Instance = Sched.Instance

(* --- deterministic builders -------------------------------------------- *)

let task_counter = ref 1000

(* Tests that rebuild copies of the same jobs (e.g. one per driver) call this
   between builds so every copy gets identical task ids. *)
let reset_tasks ?(at = 1000) () = task_counter := at

let mk_task ~id ~job ~kind ~e =
  { T.task_id = id; job_id = job; kind; exec_time = e; capacity_req = 1 }

(* [maps] and [reduces] are duration lists; task ids come from the shared
   counter.  [earliest_start = max est arrival] covers both plain jobs
   (est 0) and AR jobs with an advance reservation. *)
let mk_job ~id ?(arrival = 0) ?(est = 0) ~deadline ~maps ~reduces () =
  let fresh kind e =
    incr task_counter;
    mk_task ~id:!task_counter ~job:id ~kind ~e
  in
  {
    T.id;
    arrival;
    earliest_start = max est arrival;
    deadline;
    map_tasks = Array.of_list (List.map (fresh T.Map_task) maps);
    reduce_tasks = Array.of_list (List.map (fresh T.Reduce_task) reduces);
  }

let instance ?(now = 0) ?(map_cap = 2) ?(reduce_cap = 2) jobs =
  Instance.of_fresh_jobs ~now ~map_capacity:map_cap ~reduce_capacity:reduce_cap
    jobs

(* --- random instances --------------------------------------------------- *)

(* Inclusive (lo, hi) parameter ranges, mirroring the knobs of the paper's
   Table 3 (workload: task counts, execution times, laxity) and Table 4
   (cluster capacities), scaled down for fast shrinking. *)
type params = {
  n_jobs : int * int;
  n_maps : int * int;
  n_reduces : int * int;
  exec : int * int;
  est : int * int;  (** s_j offset: > 0 makes an AR job *)
  slack : int * int;  (** deadline laxity beyond est + work/2 *)
  cap : int * int;  (** per-pool slot count of the combined resource *)
}

let default_params =
  {
    n_jobs = (1, 5);
    n_maps = (1, 4);
    n_reduces = (0, 3);
    exec = (1, 30);
    est = (0, 50);
    slack = (0, 120);
    cap = (1, 3);
  }

(* Small instances whose exact B&B always terminates quickly — for
   properties that need every solve to prove optimality. *)
let tiny_params =
  {
    default_params with
    n_jobs = (1, 4);
    n_maps = (1, 3);
    n_reduces = (0, 2);
    exec = (1, 20);
    slack = (0, 60);
  }

let range (lo, hi) = QCheck.Gen.int_range lo hi

let gen_job ?(p = default_params) id =
  let open QCheck.Gen in
  let* n_maps = range p.n_maps in
  let* n_reduces = range p.n_reduces in
  let* maps = list_repeat n_maps (range p.exec) in
  let* reduces = list_repeat n_reduces (range p.exec) in
  let* est = range p.est in
  let* slack = range p.slack in
  let total = List.fold_left ( + ) 0 maps + List.fold_left ( + ) 0 reduces in
  return
    (mk_job ~id ~est ~deadline:(est + (total / 2) + slack) ~maps ~reduces ())

let gen_instance ?(p = default_params) () =
  let open QCheck.Gen in
  let* n_jobs = range p.n_jobs in
  let* jobs = flatten_l (List.init n_jobs (fun id -> gen_job ~p id)) in
  let* map_cap = range p.cap in
  let* reduce_cap = range p.cap in
  return (instance ~map_cap ~reduce_cap jobs)

(* Degenerate but legal inputs: zero-length tasks, no jobs at all, and a
   clock past some deadlines, so that those jobs' est ([max s_j now])
   falls after their deadline and they are late in every schedule. *)
let degenerate_params = { default_params with n_jobs = (0, 6); exec = (0, 30) }

let gen_degenerate_instance =
  let open QCheck.Gen in
  let* base = gen_instance ~p:degenerate_params () in
  let* now = int_range 0 200 in
  return
    (Instance.of_fresh_jobs ~now ~map_capacity:base.Instance.map_capacity
       ~reduce_capacity:base.Instance.reduce_capacity
       (Array.to_list
          (Array.map (fun (pj : Instance.pending_job) -> pj.Instance.job)
             base.Instance.jobs)))

let gen_cluster =
  let open QCheck.Gen in
  let* m = range (1, 4) in
  let* map_capacity = range (1, 3) in
  let* reduce_capacity = range (1, 3) in
  return (T.uniform_cluster ~m ~map_capacity ~reduce_capacity)

(* Shrink by dropping whole jobs, then by halving single-job task durations.
   Both rebuild through [of_fresh_jobs] with the original capacities and
   preserve task ids, so a shrunk counter-example still names the same
   tasks. *)
let shrink_instance (inst : Instance.t) yield =
  let rebuild jobs =
    Instance.of_fresh_jobs ~now:inst.Instance.now
      ~map_capacity:inst.Instance.map_capacity
      ~reduce_capacity:inst.Instance.reduce_capacity jobs
  in
  let jobs =
    Array.to_list
      (Array.map (fun (pj : Instance.pending_job) -> pj.Instance.job)
         inst.Instance.jobs)
  in
  if List.length jobs > 1 then
    List.iteri
      (fun i _ -> yield (rebuild (List.filteri (fun j _ -> j <> i) jobs)))
      jobs;
  List.iteri
    (fun i (job : T.job) ->
      let halve (t : T.task) =
        if t.T.exec_time > 1 then { t with T.exec_time = t.T.exec_time / 2 }
        else t
      in
      let job' =
        {
          job with
          T.map_tasks = Array.map halve job.T.map_tasks;
          reduce_tasks = Array.map halve job.T.reduce_tasks;
        }
      in
      if job' <> job then
        yield (rebuild (List.mapi (fun j x -> if j = i then job' else x) jobs)))
    jobs

let arb_instance_of ?(p = default_params) () =
  QCheck.make
    ~print:(Format.asprintf "%a" Instance.pp)
    ~shrink:shrink_instance (gen_instance ~p ())

let arb_instance = arb_instance_of ()
let arb_tiny_instance = arb_instance_of ~p:tiny_params ()

(* --- mid-stream instances ------------------------------------------------ *)

(* One mid-stream invocation: [base] planned by [plan], the clock advanced
   to [now] as Manager.classify sees it.  Tasks the plan finished by [now]
   leave and raise their job's frozen floors, tasks it started keep running
   as fixed tasks, the rest stay pending with est bumped to [now]; jobs with
   nothing left leave.  [crash_*] slots are lost per pool afterwards, so the
   running tasks may already exceed the capacity that remains. *)
let advance (base : Instance.t) plan ~now ~crash_maps ~crash_reduces =
  let step (pj : Instance.pending_job) =
    let lfmt = ref 0 and completion = ref 0 in
    let fixed_maps = ref [] and fixed_reduces = ref [] in
    let pending_maps = ref [] and pending_reduces = ref [] in
    let classify is_map (task : T.task) =
      let start = Hashtbl.find plan task.T.task_id in
      let finish = start + task.T.exec_time in
      if start <= now then begin
        if is_map && finish > !lfmt then lfmt := finish;
        if finish > !completion then completion := finish;
        if finish > now then
          let f = { Instance.task; start } in
          if is_map then fixed_maps := f :: !fixed_maps
          else fixed_reduces := f :: !fixed_reduces
      end
      else if is_map then pending_maps := task :: !pending_maps
      else pending_reduces := task :: !pending_reduces
    in
    Array.iter (classify true) pj.Instance.pending_maps;
    Array.iter (classify false) pj.Instance.pending_reduces;
    let arr l = Array.of_list (List.rev !l) in
    if
      !fixed_maps = [] && !fixed_reduces = [] && !pending_maps = []
      && !pending_reduces = []
    then None
    else
      Some
        {
          pj with
          Instance.est = max pj.Instance.est now;
          pending_maps = arr pending_maps;
          pending_reduces = arr pending_reduces;
          fixed_maps = arr fixed_maps;
          fixed_reduces = arr fixed_reduces;
          frozen_lfmt = !lfmt;
          frozen_completion = !completion;
        }
  in
  Instance.make ~now
    ~map_capacity:(max 1 (base.Instance.map_capacity - crash_maps))
    ~reduce_capacity:(max 1 (base.Instance.reduce_capacity - crash_reduces))
    (Array.of_list (List.filter_map step (Array.to_list base.Instance.jobs)))

(* The latest job completion of a plan. *)
let plan_span (inst : Instance.t) starts =
  let span = ref 0 in
  Array.iteri
    (fun jdx _ ->
      span := max !span (Sched.Solution.job_completion inst jdx starts))
    inst.Instance.jobs;
  !span

(* A plan's starts by task id. *)
let plan_table (inst : Instance.t) starts =
  let plan = Hashtbl.create 64 in
  Array.iteri
    (fun k (task : T.task) -> Hashtbl.replace plan task.T.task_id starts.(k))
    (Instance.pending_tasks inst);
  plan

(* A fresh instance planned by the greedy list scheduler, then advanced to
   a clock drawn over the plan's span, with 0–1 slots lost per pool: its
   jobs carry running (fixed) tasks and raised frozen floors, and the
   running work may overload what is left of a pool. *)
let gen_midstream_instance =
  let open QCheck.Gen in
  let* base = gen_instance () in
  let* now_pct = int_range 0 100 in
  let* crash_maps = int_range 0 1 in
  let* crash_reduces = int_range 0 1 in
  let starts = (Sched.Greedy.solve base).Sched.Solution.starts in
  return
    (advance base (plan_table base starts)
       ~now:(plan_span base starts * now_pct / 100)
       ~crash_maps ~crash_reduces)

(* An instance's running tasks, as id@start+duration. *)
let fixed_to_string (inst : Instance.t) =
  Array.to_list inst.Instance.jobs
  |> List.concat_map (fun (pj : Instance.pending_job) ->
         Array.to_list pj.Instance.fixed_maps
         @ Array.to_list pj.Instance.fixed_reduces)
  |> List.map (fun (f : Instance.fixed_task) ->
         Printf.sprintf "%d@%d+%d" f.Instance.task.T.task_id f.Instance.start
           f.Instance.task.T.exec_time)
  |> String.concat " "

let print_midstream inst =
  Format.asprintf "%a fixed=[%s]" Instance.pp inst (fixed_to_string inst)

(* Shrink by dropping whole jobs, running tasks and frozen floors with
   them; what is left is a mid-stream instance of the same clock and
   capacities. *)
let shrink_jobs (inst : Instance.t) yield =
  let jobs = inst.Instance.jobs in
  let n = Array.length jobs in
  if n > 1 then
    for i = 0 to n - 1 do
      yield
        (Instance.with_jobs inst
           (Array.of_list
              (List.filteri (fun j _ -> j <> i) (Array.to_list jobs))))
    done

(* Fresh instances ({!gen_instance}) and mid-stream ones, half each. *)
let arb_fresh_or_midstream =
  QCheck.make ~print:print_midstream ~shrink:shrink_jobs
    (QCheck.Gen.oneof [ gen_instance (); gen_midstream_instance ])
