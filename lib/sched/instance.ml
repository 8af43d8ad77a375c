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
}

let of_fresh_jobs ~now ~map_capacity ~reduce_capacity jobs =
  let make job =
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
  { now; map_capacity; reduce_capacity; jobs = Array.of_list (List.map make jobs) }

let pending_task_count t =
  Array.fold_left
    (fun acc j ->
      acc + Array.length j.pending_maps + Array.length j.pending_reduces)
    0 t.jobs

let fixed_task_count t =
  Array.fold_left
    (fun acc j -> acc + Array.length j.fixed_maps + Array.length j.fixed_reduces)
    0 t.jobs

let pending_exec_total j =
  let sum = Array.fold_left (fun acc t -> acc + t.T.exec_time) in
  sum (sum 0 j.pending_maps) j.pending_reduces

let laxity j = j.job.T.deadline - j.est - pending_exec_total j

let pp fmt t =
  Format.fprintf fmt "instance<now=%d cap=(%d,%d) jobs=%d pending=%d fixed=%d>"
    t.now t.map_capacity t.reduce_capacity (Array.length t.jobs)
    (pending_task_count t) (fixed_task_count t)
