module T = Mapreduce.Types

type order = By_job_id | Edf | Least_laxity

let order_to_string = function
  | By_job_id -> "job-id"
  | Edf -> "edf"
  | Least_laxity -> "least-laxity"

(* Longest tasks first within a phase: pairs well with earliest-fit since the
   big tasks claim contiguous room before fragmentation sets in. *)
let by_duration_desc (a : T.task) (b : T.task) =
  let c = compare b.T.exec_time a.T.exec_time in
  if c <> 0 then c else compare a.T.task_id b.T.task_id

(* What every list schedule of one instance shares.  The frozen tasks'
   profiles are built once and copied per schedule: a profile's usage does
   not depend on the order its tasks were added in, so a copy equals a
   fresh rebuild.  Each job's pending tasks are sorted on first use. *)
type pass = {
  inst : Instance.t;
  map_frozen : Profile.t;
  reduce_frozen : Profile.t;
  pending : int;  (* pending task count, to size the start tables *)
  maps : T.task array array;
  reduces : T.task array array;
  sorted : bool array;
}

let occupy profile (f : Instance.fixed_task) =
  Profile.add profile ~start:f.Instance.start
    ~duration:f.Instance.task.T.exec_time ~amount:f.Instance.task.T.capacity_req

let prepare (inst : Instance.t) =
  let map_frozen = Profile.create ~capacity:inst.Instance.map_capacity in
  let reduce_frozen = Profile.create ~capacity:inst.Instance.reduce_capacity in
  Array.iter
    (fun (j : Instance.pending_job) ->
      Array.iter (occupy map_frozen) j.Instance.fixed_maps;
      Array.iter (occupy reduce_frozen) j.Instance.fixed_reduces)
    inst.Instance.jobs;
  let jobs = inst.Instance.jobs in
  {
    inst;
    map_frozen;
    reduce_frozen;
    pending = Instance.pending_task_count inst;
    maps = Array.map (fun j -> j.Instance.pending_maps) jobs;
    reduces = Array.map (fun j -> j.Instance.pending_reduces) jobs;
    sorted = Array.make (Array.length jobs) false;
  }

let sort_job p jdx =
  if not p.sorted.(jdx) then begin
    let sorted tasks =
      let a = Array.copy tasks in
      Array.sort by_duration_desc a;
      a
    in
    p.maps.(jdx) <- sorted p.maps.(jdx);
    p.reduces.(jdx) <- sorted p.reduces.(jdx);
    p.sorted.(jdx) <- true
  end

(* One schedule under construction: the frozen profiles' copies, the start
   table and each job's completion so far (the same value
   [Solution.job_completion] reads back from the table). *)
type sheet = {
  map_profile : Profile.t;
  reduce_profile : Profile.t;
  starts : (int, int) Hashtbl.t;
  completion : int array;
}

let sheet p =
  {
    map_profile = Profile.copy p.map_frozen;
    reduce_profile = Profile.copy p.reduce_frozen;
    starts = Hashtbl.create p.pending;
    completion =
      Array.map (fun j -> j.Instance.frozen_completion) p.inst.Instance.jobs;
  }

let record sh jdx (task : T.task) start =
  Hashtbl.replace sh.starts task.T.task_id start;
  let finish = start + task.T.exec_time in
  if finish > sh.completion.(jdx) then sh.completion.(jdx) <- finish;
  finish

(* Each job of [sequence] in turn: maps longest-first at their earliest fit
   from est, then reduces longest-first from the job's latest map finish. *)
let place_jobs p sh sequence =
  let place profile jdx ~floor (task : T.task) =
    let start =
      Profile.earliest_fit profile ~from:floor ~duration:task.T.exec_time
        ~amount:task.T.capacity_req
    in
    Profile.add profile ~start ~duration:task.T.exec_time
      ~amount:task.T.capacity_req;
    record sh jdx task start
  in
  Array.iter
    (fun jdx ->
      let j = p.inst.Instance.jobs.(jdx) in
      sort_job p jdx;
      let lfmt = ref j.Instance.frozen_lfmt in
      Array.iter
        (fun task ->
          let finish = place sh.map_profile jdx ~floor:j.Instance.est task in
          if finish > !lfmt then lfmt := finish)
        p.maps.(jdx);
      let reduce_floor = max !lfmt j.Instance.est in
      Array.iter
        (fun task ->
          ignore (place sh.reduce_profile jdx ~floor:reduce_floor task))
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
  Array.sort
    (fun a b ->
      let c = compare (keys.(a) : int) keys.(b) in
      if c <> 0 then c else compare (id a : int) (id b))
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
        let add profile ~floor (task : T.task) =
          let start = Hashtbl.find carried task.T.task_id in
          if start < floor then ok := false;
          Profile.add profile ~start ~duration:task.T.exec_time
            ~amount:task.T.capacity_req;
          record sh jdx task start
        in
        let lfmt = ref j.Instance.frozen_lfmt in
        Array.iter
          (fun task ->
            let finish = add sh.map_profile ~floor:j.Instance.est task in
            if finish > !lfmt then lfmt := finish)
          j.Instance.pending_maps;
        Array.iter
          (fun task ->
            ignore
              (add sh.reduce_profile ~floor:(max !lfmt j.Instance.est) task))
          j.Instance.pending_reduces
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
