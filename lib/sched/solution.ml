module T = Mapreduce.Types

type t = {
  starts : (int, int) Hashtbl.t;
  late_jobs : int;
  total_tardiness : int;
}

let start_of t ~task_id = Hashtbl.find t.starts task_id

let better a b =
  a.late_jobs < b.late_jobs
  || (a.late_jobs = b.late_jobs && a.total_tardiness < b.total_tardiness)

let completion_of starts (task : T.task) =
  Hashtbl.find starts task.T.task_id + task.T.exec_time

let job_lfmt (j : Instance.pending_job) starts =
  Array.fold_left
    (fun acc task -> max acc (completion_of starts task))
    j.Instance.frozen_lfmt j.Instance.pending_maps

let job_completion (j : Instance.pending_job) starts =
  let acc =
    Array.fold_left
      (fun acc task -> max acc (completion_of starts task))
      j.Instance.frozen_completion j.Instance.pending_reduces
  in
  (* Map-only jobs finish with their last map. *)
  Array.fold_left
    (fun acc task -> max acc (completion_of starts task))
    acc j.Instance.pending_maps

let tally (inst : Instance.t) starts ~completion =
  let late = ref 0 and tardiness = ref 0 in
  Array.iteri
    (fun jdx j ->
      let over = completion jdx j - j.Instance.job.T.deadline in
      if over > 0 then begin
        incr late;
        tardiness := !tardiness + over
      end)
    inst.Instance.jobs;
  { starts; late_jobs = !late; total_tardiness = !tardiness }

let evaluate inst starts =
  tally inst starts ~completion:(fun _ j -> job_completion j starts)

let feasibility_errors (inst : Instance.t) t =
  let errors = ref [] in
  let error fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let lookup task =
    match Hashtbl.find_opt t.starts task.T.task_id with
    | Some s -> Some s
    | None ->
        error "task %d (job %d) has no assigned start" task.T.task_id
          task.T.job_id;
        None
  in
  let map_profile = Profile.create ~capacity:inst.Instance.map_capacity in
  let reduce_profile = Profile.create ~capacity:inst.Instance.reduce_capacity in
  let occupy profile (task : T.task) start =
    if not (Profile.fits profile ~start ~duration:task.T.exec_time
              ~amount:task.T.capacity_req)
    then
      error "capacity violated by task %d (job %d) at %d" task.T.task_id
        task.T.job_id start;
    Profile.add profile ~start ~duration:task.T.exec_time
      ~amount:task.T.capacity_req
  in
  Array.iter
    (fun (j : Instance.pending_job) ->
      let job = j.Instance.job in
      (* fixed tasks occupy capacity at frozen positions *)
      Array.iter
        (fun (f : Instance.fixed_task) ->
          occupy map_profile f.Instance.task f.Instance.start)
        j.Instance.fixed_maps;
      Array.iter
        (fun (f : Instance.fixed_task) ->
          occupy reduce_profile f.Instance.task f.Instance.start)
        j.Instance.fixed_reduces;
      (* pending maps: est + capacity *)
      Array.iter
        (fun task ->
          match lookup task with
          | None -> ()
          | Some s ->
              if s < j.Instance.est then
                error "map task %d of job %d starts at %d before est %d"
                  task.T.task_id job.T.id s j.Instance.est;
              occupy map_profile task s)
        j.Instance.pending_maps;
      (* pending reduces: precedence + capacity *)
      let all_maps_assigned =
        Array.for_all
          (fun task -> Hashtbl.mem t.starts task.T.task_id)
          j.Instance.pending_maps
      in
      let lfmt = if all_maps_assigned then job_lfmt j t.starts else min_int in
      Array.iter
        (fun task ->
          match lookup task with
          | None -> ()
          | Some s ->
              if all_maps_assigned && s < lfmt then
                error
                  "reduce task %d of job %d starts at %d before LFMT %d"
                  task.T.task_id job.T.id s lfmt;
              occupy reduce_profile task s)
        j.Instance.pending_reduces)
    inst.Instance.jobs;
  (* cross-check the objective accounting *)
  let recomputed = evaluate inst t.starts in
  if recomputed.late_jobs <> t.late_jobs then
    error "late-job count %d does not match recomputed %d" t.late_jobs
      recomputed.late_jobs;
  if recomputed.total_tardiness <> t.total_tardiness then
    error "tardiness %d does not match recomputed %d" t.total_tardiness
      recomputed.total_tardiness;
  List.rev !errors

let pp fmt t =
  Format.fprintf fmt "solution<late=%d tardiness=%dms assigned=%d>" t.late_jobs
    t.total_tardiness (Hashtbl.length t.starts)
