module T = Mapreduce.Types

type fixed_task = { task : T.task; start : int }

type pending_job = {
  job : T.job;
  est : int;
  pending_maps : T.task array;
  pending_reduces : T.task array;
  fixed_maps : fixed_task array;
  fixed_reduces : fixed_task array;
  frozen_lfmt : int;
  frozen_completion : int;
}

type t = {
  now : int;
  map_capacity : int;
  reduce_capacity : int;
  jobs : pending_job array;
  first : int array;
}

let make ~now ~map_capacity ~reduce_capacity jobs =
  let n = Array.length jobs in
  let first = Array.make (n + 1) 0 in
  for jdx = 0 to n - 1 do
    let j = jobs.(jdx) in
    first.(jdx + 1) <-
      first.(jdx) + Array.length j.pending_maps + Array.length j.pending_reduces
  done;
  { now; map_capacity; reduce_capacity; jobs; first }

let with_jobs t jobs =
  make ~now:t.now ~map_capacity:t.map_capacity
    ~reduce_capacity:t.reduce_capacity jobs

let of_fresh_jobs ~now ~map_capacity ~reduce_capacity jobs =
  let pending job =
    {
      job;
      est = max job.T.earliest_start now;
      pending_maps = Array.copy job.T.map_tasks;
      pending_reduces = Array.copy job.T.reduce_tasks;
      fixed_maps = [||];
      fixed_reduces = [||];
      frozen_lfmt = 0;
      frozen_completion = 0;
    }
  in
  make ~now ~map_capacity ~reduce_capacity
    (Array.of_list (List.map pending jobs))

let pending_task_count t = t.first.(Array.length t.jobs)

let pending_tasks t =
  let jdx = ref 0 in
  Array.init (pending_task_count t) (fun k ->
      (* [Array.init] fills in index order, so the owning job only advances *)
      while t.first.(!jdx + 1) <= k do
        incr jdx
      done;
      let j = t.jobs.(!jdx) in
      let i = k - t.first.(!jdx) in
      let n_maps = Array.length j.pending_maps in
      if i < n_maps then j.pending_maps.(i) else j.pending_reduces.(i - n_maps))

let task_index t ~task_id =
  let found = ref (-1) in
  Array.iteri
    (fun jdx j ->
      let scan off tasks =
        Array.iteri
          (fun i (task : T.task) ->
            if task.T.task_id = task_id then found := off + i)
          tasks
      in
      scan t.first.(jdx) j.pending_maps;
      scan (t.first.(jdx) + Array.length j.pending_maps) j.pending_reduces)
    t.jobs;
  if !found < 0 then raise Not_found else !found

let fixed_task_count t =
  Array.fold_left
    (fun acc j -> acc + Array.length j.fixed_maps + Array.length j.fixed_reduces)
    0 t.jobs

let pending_exec_total j =
  let sum = Array.fold_left (fun acc t -> acc + t.T.exec_time) in
  sum (sum 0 j.pending_maps) j.pending_reduces

let laxity j = j.job.T.deadline - j.est - pending_exec_total j

let default_horizon (inst : t) =
  let work = ref 0 and max_est = ref inst.now and frozen = ref 0 in
  Array.iter
    (fun (j : pending_job) ->
      if j.est > !max_est then max_est := j.est;
      let add (task : T.task) = work := !work + task.T.exec_time in
      Array.iter add j.pending_maps;
      Array.iter add j.pending_reduces;
      let add_fixed (f : fixed_task) =
        let finish = f.start + f.task.T.exec_time in
        if finish > !frozen then frozen := finish
      in
      Array.iter add_fixed j.fixed_maps;
      Array.iter add_fixed j.fixed_reduces;
      if j.frozen_completion > !frozen then
        frozen := j.frozen_completion)
    inst.jobs;
  max (max !max_est !frozen) inst.now + !work + 1

let pp fmt t =
  Format.fprintf fmt "instance<now=%d cap=(%d,%d) jobs=%d pending=%d fixed=%d>"
    t.now t.map_capacity t.reduce_capacity (Array.length t.jobs)
    (pending_task_count t) (fixed_task_count t)
