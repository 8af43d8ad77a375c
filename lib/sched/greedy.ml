module T = Mapreduce.Types

type order = By_job_id | Edf | Least_laxity

let order_to_string = function
  | By_job_id -> "job-id"
  | Edf -> "edf"
  | Least_laxity -> "least-laxity"

(* What every list schedule of one instance shares.  The frozen tasks'
   profiles are built once and copied per schedule: a profile's usage does
   not depend on the order its tasks were added in, so a copy equals a
   fresh rebuild.  Each job's pending tasks are sorted on first use. *)
type pass = {
  inst : Instance.t;
  map_frozen : Profile.t;
  reduce_frozen : Profile.t;
  tasks : T.task array;  (* the pending tasks, by task index *)
  maps : int array array;  (* per job: its maps' task indices, once sorted *)
  reduces : int array array;
  sorted : bool array;
}

let occupy profile (f : Instance.fixed_task) =
  Profile.add profile ~start:f.Instance.start
    ~duration:f.Instance.task.T.exec_time ~amount:f.Instance.task.T.capacity_req

let prepare (inst : Instance.t) =
  let map_frozen = Profile.create ~capacity:inst.Instance.map_capacity in
  let reduce_frozen = Profile.create ~capacity:inst.Instance.reduce_capacity in
  let jobs = inst.Instance.jobs in
  Array.iter
    (fun (j : Instance.pending_job) ->
      Array.iter (occupy map_frozen) j.Instance.fixed_maps;
      Array.iter (occupy reduce_frozen) j.Instance.fixed_reduces)
    jobs;
  let n = Array.length jobs in
  {
    inst;
    map_frozen;
    reduce_frozen;
    tasks = Instance.pending_tasks inst;
    maps = Array.make n [||];
    reduces = Array.make n [||];
    sorted = Array.make n false;
  }

(* Longest tasks first within a phase: pairs well with earliest-fit since the
   big tasks claim contiguous room before fragmentation sets in. *)
let sort_job p jdx =
  if not p.sorted.(jdx) then begin
    let j = p.inst.Instance.jobs.(jdx) in
    let longest_first from count =
      let a = Array.init count (fun i -> from + i) in
      Array.stable_sort
        (fun x y ->
          let tx = p.tasks.(x) and ty = p.tasks.(y) in
          let c = Int.compare ty.T.exec_time tx.T.exec_time in
          if c <> 0 then c else Int.compare tx.T.task_id ty.T.task_id)
        a;
      a
    in
    let off = p.inst.Instance.first.(jdx) in
    let n_maps = Array.length j.Instance.pending_maps in
    p.maps.(jdx) <- longest_first off n_maps;
    p.reduces.(jdx) <-
      longest_first (off + n_maps) (Array.length j.Instance.pending_reduces);
    p.sorted.(jdx) <- true
  end

(* One schedule under construction: the frozen profiles' copies, the start
   array and each job's completion so far (the same value
   [Solution.job_completion] reads back from the array). *)
type sheet = {
  map_profile : Profile.t;
  reduce_profile : Profile.t;
  starts : int array;
  completion : int array;
}

let sheet p =
  {
    map_profile = Profile.copy p.map_frozen;
    reduce_profile = Profile.copy p.reduce_frozen;
    starts = Array.make (Array.length p.tasks) 0;
    completion =
      Array.map (fun j -> j.Instance.frozen_completion) p.inst.Instance.jobs;
  }

let record p sh jdx k start =
  sh.starts.(k) <- start;
  let finish = start + p.tasks.(k).T.exec_time in
  if finish > sh.completion.(jdx) then sh.completion.(jdx) <- finish;
  finish

(* Each job of [sequence] in turn: maps longest-first at their earliest fit
   from est, then reduces longest-first from the job's latest map finish. *)
let place_jobs p sh sequence =
  let place profile jdx ~floor k =
    let task = p.tasks.(k) in
    let start =
      Profile.place profile ~from:floor ~duration:task.T.exec_time
        ~amount:task.T.capacity_req
    in
    record p sh jdx k start
  in
  Array.iter
    (fun jdx ->
      let j = p.inst.Instance.jobs.(jdx) in
      sort_job p jdx;
      let lfmt = ref j.Instance.frozen_lfmt in
      Array.iter
        (fun k ->
          let finish = place sh.map_profile jdx ~floor:j.Instance.est k in
          if finish > !lfmt then lfmt := finish)
        p.maps.(jdx);
      let reduce_floor = max !lfmt j.Instance.est in
      Array.iter
        (fun k -> ignore (place sh.reduce_profile jdx ~floor:reduce_floor k))
        p.reduces.(jdx))
    sequence

let result p sh =
  Solution.tally p.inst sh.starts ~completion:(fun jdx _ -> sh.completion.(jdx))

let schedule_sequence p sequence =
  let sh = sheet p in
  place_jobs p sh sequence;
  result p sh

(* [sequence] sorted by [order]; ties on the key go to the lower job id.
   Keys are computed once per job, not per comparison. *)
let sort_by order (inst : Instance.t) sequence =
  let key (j : Instance.pending_job) =
    match order with
    | By_job_id -> j.Instance.job.T.id
    | Edf -> j.Instance.job.T.deadline
    | Least_laxity -> Instance.laxity j
  in
  let keys = Array.map key inst.Instance.jobs in
  let id jdx = inst.Instance.jobs.(jdx).Instance.job.T.id in
  Array.stable_sort
    (fun a b ->
      let c = Int.compare keys.(a) keys.(b) in
      if c <> 0 then c else Int.compare (id a) (id b))
    sequence;
  sequence

let schedule ?(order = Edf) p =
  let n = Array.length p.inst.Instance.jobs in
  schedule_sequence p (sort_by order p.inst (Array.init n Fun.id))

(* The covered jobs keep their carried starts, checked against est and
   their own maps' finish as they are added; the rest are EDF-scheduled
   around them.  The capacity check reads the final peak: usage only grows
   as tasks are added, so it bounds every intermediate one. *)
let complete p ~carried ~covered =
  let sh = sheet p in
  let ok = ref true in
  Array.iteri
    (fun jdx (j : Instance.pending_job) ->
      if covered.(jdx) then begin
        let add profile ~floor k =
          let start = carried.(k) and task = p.tasks.(k) in
          if start < floor then ok := false;
          Profile.add profile ~start ~duration:task.T.exec_time
            ~amount:task.T.capacity_req;
          record p sh jdx k start
        in
        let off = p.inst.Instance.first.(jdx) in
        let n_maps = Array.length j.Instance.pending_maps in
        let lfmt = ref j.Instance.frozen_lfmt in
        for k = off to off + n_maps - 1 do
          let finish = add sh.map_profile ~floor:j.Instance.est k in
          if finish > !lfmt then lfmt := finish
        done;
        let reduce_floor = max !lfmt j.Instance.est in
        for k = off + n_maps to p.inst.Instance.first.(jdx + 1) - 1 do
          ignore (add sh.reduce_profile ~floor:reduce_floor k)
        done
      end)
    p.inst.Instance.jobs;
  let rest = Array.make (Array.length covered) 0 and n_rest = ref 0 in
  Array.iteri
    (fun jdx c ->
      if not c then begin
        rest.(!n_rest) <- jdx;
        incr n_rest
      end)
    covered;
  place_jobs p sh (sort_by Edf p.inst (Array.sub rest 0 !n_rest));
  let fits =
    !ok
    && Profile.max_usage sh.map_profile <= p.inst.Instance.map_capacity
    && Profile.max_usage sh.reduce_profile <= p.inst.Instance.reduce_capacity
  in
  (result p sh, fits)

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
