module T = Mapreduce.Types

type order = By_job_id | Edf | Least_laxity

let order_to_string = function
  | By_job_id -> "job-id"
  | Edf -> "edf"
  | Least_laxity -> "least-laxity"

(* What every list schedule of one instance shares.  The frozen tasks'
   profiles are built once; each schedule resets the two working profiles
   from them (a profile's usage does not depend on the order its tasks were
   added in, so a reset equals a fresh rebuild), and the working profiles
   keep the room they grew to.  The tasks' fields are unpacked into int
   arrays over the task index, the jobs' sort keys into arrays over the
   jobs, and each job's placement order is sorted on first use. *)
type pass = {
  inst : Instance.t;
  map_frozen : Profile.t;
  reduce_frozen : Profile.t;
  map_work : Profile.t;
  reduce_work : Profile.t;
  tasks : T.task array;  (* the pending tasks, by task index *)
  exec : int array;  (* by task index: execution time *)
  demand : int array;  (* capacity requirement *)
  longest : int array;  (* minus the execution time: longest first *)
  ids : int array;  (* task id, the tie-break *)
  (* job [jdx]'s block [first.(jdx), first.(jdx + 1)) holds its task
     indices in placement order (maps longest-first, then reduces
     longest-first) once [sorted.(jdx)] *)
  placement : int array;
  sorted : bool array;
  job_ids : int array;  (* by job index *)
  deadlines : int array;
  completion : int array;  (* the schedule under construction's, per job *)
  mutable edf : int array option;  (* the jobs in EDF order, once asked *)
}

let occupy profile (f : Instance.fixed_task) =
  Profile.add profile ~start:f.Instance.start
    ~duration:f.Instance.task.T.exec_time ~amount:f.Instance.task.T.capacity_req

type scratch = { mutable profiles : Profile.t array }

let scratch () = { profiles = [||] }

(* [| map_frozen; reduce_frozen; map_work; reduce_work |]: the scratch's
   when their capacities match the instance's, the frozen two emptied (each
   schedule overwrites the working two), else fresh ones, which the scratch
   keeps for the next pass *)
let profiles_for scratch (inst : Instance.t) =
  let mc = inst.Instance.map_capacity and rc = inst.Instance.reduce_capacity in
  let fresh () =
    let make capacity = Profile.create ~capacity in
    [| make mc; make rc; make mc; make rc |]
  in
  match scratch with
  | None -> fresh ()
  | Some s ->
      let ps = s.profiles in
      if
        Array.length ps = 4
        && Profile.capacity ps.(0) = mc
        && Profile.capacity ps.(1) = rc
      then begin
        Profile.clear ps.(0);
        Profile.clear ps.(1);
        ps
      end
      else begin
        let ps = fresh () in
        s.profiles <- ps;
        ps
      end

let prepare ?scratch (inst : Instance.t) =
  let profiles = profiles_for scratch inst in
  let map_frozen = profiles.(0) and reduce_frozen = profiles.(1) in
  let jobs = inst.Instance.jobs in
  Array.iter
    (fun (j : Instance.pending_job) ->
      Array.iter (occupy map_frozen) j.Instance.fixed_maps;
      Array.iter (occupy reduce_frozen) j.Instance.fixed_reduces)
    jobs;
  let n = Array.length jobs in
  let n_tasks = Instance.pending_task_count inst in
  let exec = Array.make n_tasks 0 and demand = Array.make n_tasks 0 in
  let longest = Array.make n_tasks 0 and ids = Array.make n_tasks 0 in
  let job_ids = Array.make n 0 and deadlines = Array.make n 0 in
  let tasks = Instance.pending_tasks inst in
  for k = 0 to n_tasks - 1 do
    let task = tasks.(k) in
    exec.(k) <- task.T.exec_time;
    demand.(k) <- task.T.capacity_req;
    longest.(k) <- -task.T.exec_time;
    ids.(k) <- task.T.task_id
  done;
  for jdx = 0 to n - 1 do
    let job = jobs.(jdx).Instance.job in
    job_ids.(jdx) <- job.T.id;
    deadlines.(jdx) <- job.T.deadline
  done;
  {
    inst;
    map_frozen;
    reduce_frozen;
    map_work = profiles.(2);
    reduce_work = profiles.(3);
    tasks;
    exec;
    demand;
    longest;
    ids;
    placement = Array.make n_tasks 0;
    sorted = Array.make n false;
    job_ids;
    deadlines;
    completion = Array.make n 0;
    edf = None;
  }

let tasks p = p.tasks

(* Longest tasks first within a phase: pairs well with earliest-fit since the
   big tasks claim contiguous room before fragmentation sets in.  Ties go to
   the lower task id. *)
let sort_job p jdx =
  if not p.sorted.(jdx) then begin
    let first = p.inst.Instance.first in
    let off = first.(jdx) and stop = first.(jdx + 1) in
    let mid =
      off + Array.length p.inst.Instance.jobs.(jdx).Instance.pending_maps
    in
    for k = off to stop - 1 do
      p.placement.(k) <- k
    done;
    Index_sort.sort p.placement ~lo:off ~hi:mid ~key:p.longest ~tie:p.ids;
    Index_sort.sort p.placement ~lo:mid ~hi:stop ~key:p.longest ~tie:p.ids;
    p.sorted.(jdx) <- true
  end

(* A fresh start array for one schedule; the working profiles and the
   per-job completions start from the frozen tasks. *)
let open_sheet p =
  Profile.copy_into ~src:p.map_frozen p.map_work;
  Profile.copy_into ~src:p.reduce_frozen p.reduce_work;
  let jobs = p.inst.Instance.jobs in
  for jdx = 0 to Array.length jobs - 1 do
    p.completion.(jdx) <- jobs.(jdx).Instance.frozen_completion
  done;
  Array.make (Array.length p.tasks) 0

(* Job [jdx]: maps longest-first at their earliest fit from est, then
   reduces longest-first from the job's latest map finish. *)
let place_job p starts jdx =
  let j = p.inst.Instance.jobs.(jdx) in
  sort_job p jdx;
  let first = p.inst.Instance.first in
  let off = first.(jdx) and stop = first.(jdx + 1) in
  let mid = off + Array.length j.Instance.pending_maps in
  let est = j.Instance.est in
  let lfmt = ref j.Instance.frozen_lfmt
  and completion = ref p.completion.(jdx) in
  for q = off to mid - 1 do
    let k = p.placement.(q) in
    let duration = p.exec.(k) in
    let start =
      Profile.place p.map_work ~from:est ~duration ~amount:p.demand.(k)
    in
    starts.(k) <- start;
    let finish = start + duration in
    if finish > !lfmt then lfmt := finish;
    if finish > !completion then completion := finish
  done;
  let reduce_floor = max !lfmt est in
  for q = mid to stop - 1 do
    let k = p.placement.(q) in
    let duration = p.exec.(k) in
    let start =
      Profile.place p.reduce_work ~from:reduce_floor ~duration
        ~amount:p.demand.(k)
    in
    starts.(k) <- start;
    let finish = start + duration in
    if finish > !completion then completion := finish
  done;
  p.completion.(jdx) <- !completion

(* The objective of the finished sheet, from its per-job completions. *)
let result p starts =
  let late = ref 0 and tardiness = ref 0 in
  for jdx = 0 to Array.length p.deadlines - 1 do
    let over = p.completion.(jdx) - p.deadlines.(jdx) in
    if over > 0 then begin
      incr late;
      tardiness := !tardiness + over
    end
  done;
  { Solution.starts; late_jobs = !late; total_tardiness = !tardiness }

let schedule_sequence p sequence =
  let starts = open_sheet p in
  Array.iter (place_job p starts) sequence;
  result p starts

(* The jobs sorted by [order]; ties on the key go to the lower job id. *)
let sorted_jobs p order =
  let key =
    match order with
    | By_job_id -> p.job_ids
    | Edf -> p.deadlines
    | Least_laxity -> Array.map Instance.laxity p.inst.Instance.jobs
  in
  let n = Array.length p.job_ids in
  let sequence = Array.init n Fun.id in
  Index_sort.sort sequence ~lo:0 ~hi:n ~key ~tie:p.job_ids;
  sequence

let edf_order p =
  match p.edf with
  | Some sequence -> sequence
  | None ->
      let sequence = sorted_jobs p Edf in
      p.edf <- Some sequence;
      sequence

let schedule ?(order = Edf) p =
  schedule_sequence p
    (match order with Edf -> edf_order p | _ -> sorted_jobs p order)

(* The covered jobs keep their carried starts, checked against est and
   their own maps' finish; the rest are EDF-scheduled around them (the EDF
   order with the covered jobs left out: the keys are unique, so that is
   the rest sorted on its own).  The covered tasks go into the profiles in
   start order, so each insert lands near the tail instead of shifting it:
   the boundaries, and so every later fit, do not depend on the order
   tasks were added in.  The capacity check reads the final peak: usage
   only grows as tasks are added, so it bounds every intermediate one. *)
let complete p ~carried ~covered =
  let starts = open_sheet p in
  let ok = ref true in
  let first = p.inst.Instance.first in
  let n_tasks = Array.length p.tasks in
  (* the covered maps from the front of [added], their reduces from the
     back *)
  let added = Array.make n_tasks 0 in
  let n_maps = ref 0 and n_reduces = ref 0 in
  Array.iteri
    (fun jdx (j : Instance.pending_job) ->
      if covered.(jdx) then begin
        let off = first.(jdx) and stop = first.(jdx + 1) in
        let mid = off + Array.length j.Instance.pending_maps in
        let est = j.Instance.est in
        let lfmt = ref j.Instance.frozen_lfmt
        and completion = ref p.completion.(jdx) in
        for k = off to mid - 1 do
          let start = carried.(k) in
          if start < est then ok := false;
          starts.(k) <- start;
          added.(!n_maps) <- k;
          incr n_maps;
          let finish = start + p.exec.(k) in
          if finish > !lfmt then lfmt := finish;
          if finish > !completion then completion := finish
        done;
        let reduce_floor = max !lfmt est in
        for k = mid to stop - 1 do
          let start = carried.(k) in
          if start < reduce_floor then ok := false;
          starts.(k) <- start;
          incr n_reduces;
          added.(n_tasks - !n_reduces) <- k;
          let finish = start + p.exec.(k) in
          if finish > !completion then completion := finish
        done;
        p.completion.(jdx) <- !completion
      end)
    p.inst.Instance.jobs;
  let occupy profile ~lo ~hi =
    Index_sort.sort added ~lo ~hi ~key:starts ~tie:p.ids;
    for q = lo to hi - 1 do
      let k = added.(q) in
      Profile.add profile ~start:starts.(k) ~duration:p.exec.(k)
        ~amount:p.demand.(k)
    done
  in
  occupy p.map_work ~lo:0 ~hi:!n_maps;
  occupy p.reduce_work ~lo:(n_tasks - !n_reduces) ~hi:n_tasks;
  Array.iter
    (fun jdx -> if not covered.(jdx) then place_job p starts jdx)
    (edf_order p);
  let fits =
    !ok
    && Profile.max_usage p.map_work <= p.inst.Instance.map_capacity
    && Profile.max_usage p.reduce_work <= p.inst.Instance.reduce_capacity
  in
  (result p starts, fits)

let solve_with_sequence inst sequence =
  let n = Array.length inst.Instance.jobs in
  if Array.length sequence <> n then
    invalid_arg "Greedy.solve_with_sequence: sequence length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Greedy.solve_with_sequence: not a permutation";
      seen.(i) <- true)
    sequence;
  schedule_sequence (prepare inst) sequence

let solve ?order inst = schedule ?order (prepare inst)
