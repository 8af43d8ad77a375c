module T = Mapreduce.Types

type t = { starts : int array; late_jobs : int; total_tardiness : int }

let start_of inst t ~task_id = t.starts.(Instance.task_index inst ~task_id)

let better a b =
  a.late_jobs < b.late_jobs
  || (a.late_jobs = b.late_jobs && a.total_tardiness < b.total_tardiness)

(* [floor] raised to the latest completion of [tasks], whose starts sit at
   [starts.(off) ..] *)
let latest_finish floor starts off (tasks : T.task array) =
  let acc = ref floor in
  for i = 0 to Array.length tasks - 1 do
    let finish = starts.(off + i) + tasks.(i).T.exec_time in
    if finish > !acc then acc := finish
  done;
  !acc

let job_lfmt (inst : Instance.t) jdx starts =
  let j = inst.Instance.jobs.(jdx) in
  latest_finish j.Instance.frozen_lfmt starts inst.Instance.first.(jdx)
    j.Instance.pending_maps

let job_completion (inst : Instance.t) jdx starts =
  let j = inst.Instance.jobs.(jdx) in
  let off = inst.Instance.first.(jdx) in
  let acc =
    latest_finish j.Instance.frozen_completion starts
      (off + Array.length j.Instance.pending_maps)
      j.Instance.pending_reduces
  in
  (* Map-only jobs finish with their last map. *)
  latest_finish acc starts off j.Instance.pending_maps

let evaluate (inst : Instance.t) starts =
  let late = ref 0 and tardiness = ref 0 in
  Array.iteri
    (fun jdx (j : Instance.pending_job) ->
      let over = job_completion inst jdx starts - j.Instance.job.T.deadline in
      if over > 0 then begin
        incr late;
        tardiness := !tardiness + over
      end)
    inst.Instance.jobs;
  { starts; late_jobs = !late; total_tardiness = !tardiness }

let feasibility_errors (inst : Instance.t) t =
  let errors = ref [] in
  let error fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let expected = Instance.pending_task_count inst in
  if Array.length t.starts <> expected then
    error "%d start times for %d pending tasks" (Array.length t.starts)
      expected
  else begin
    let map_profile = Profile.create ~capacity:inst.Instance.map_capacity in
    let reduce_profile =
      Profile.create ~capacity:inst.Instance.reduce_capacity
    in
    let occupy profile (task : T.task) start =
      if
        not
          (Profile.fits profile ~start ~duration:task.T.exec_time
             ~amount:task.T.capacity_req)
      then
        error "capacity violated by task %d (job %d) at %d" task.T.task_id
          task.T.job_id start;
      Profile.add profile ~start ~duration:task.T.exec_time
        ~amount:task.T.capacity_req
    in
    Array.iteri
      (fun jdx (j : Instance.pending_job) ->
        let job = j.Instance.job in
        let off = inst.Instance.first.(jdx) in
        let n_maps = Array.length j.Instance.pending_maps in
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
        Array.iteri
          (fun i task ->
            let s = t.starts.(off + i) in
            if s < j.Instance.est then
              error "map task %d of job %d starts at %d before est %d"
                task.T.task_id job.T.id s j.Instance.est;
            occupy map_profile task s)
          j.Instance.pending_maps;
        (* pending reduces: precedence + capacity *)
        let lfmt = job_lfmt inst jdx t.starts in
        Array.iteri
          (fun i task ->
            let s = t.starts.(off + n_maps + i) in
            if s < lfmt then
              error "reduce task %d of job %d starts at %d before LFMT %d"
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
        recomputed.total_tardiness
  end;
  List.rev !errors

let pp fmt t =
  Format.fprintf fmt "solution<late=%d tardiness=%dms assigned=%d>" t.late_jobs
    t.total_tardiness (Array.length t.starts)
