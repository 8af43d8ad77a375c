type t = {
  task : Mapreduce.Types.task;
  resource_id : int;
  slot : int;
  start : int;
}

let finish d = d.start + d.task.Mapreduce.Types.exec_time

let pp fmt d =
  Format.fprintf fmt "dispatch<task=%d res=%d slot=%d [%d,%d)>"
    d.task.Mapreduce.Types.task_id d.resource_id d.slot d.start (finish d)

let compare_by_start a b =
  let c = compare a.start b.start in
  if c <> 0 then c
  else compare a.task.Mapreduce.Types.task_id b.task.Mapreduce.Types.task_id

let equal a b =
  a == b
  || a.start = b.start && a.slot = b.slot && a.resource_id = b.resource_id
     &&
     let ta = a.task and tb = b.task in
     ta == tb
     || ta.Mapreduce.Types.task_id = tb.Mapreduce.Types.task_id
        && ta.job_id = tb.job_id && ta.kind = tb.kind
        && ta.exec_time = tb.exec_time
        && ta.capacity_req = tb.capacity_req
