(* The session search's list-schedule leaf ({!Cp.Solver.list_leaf}) written
   plainly, as the reference the library's must reproduce exactly: whole
   list schedules of the instance from {!Sched.Greedy.solve_with_sequence},
   sequences as lists, each job's completion read back from the plan's
   starts.

   Given each job's lateness decision ([true]: decided late), the jobs
   decided on time go first in EDF order (deadline, then job id), then the
   jobs decided late by ascending pending work, ties in EDF order.  While
   some job decided on time ends late, the first such job in the sequence
   moves to the front, unless it is there already or has jumped before;
   the best plan seen is returned, with the first (unrepaired) plan and
   the number of list schedules run. *)

module T = Mapreduce.Types
module Instance = Sched.Instance
module Solution = Sched.Solution

let leaf (inst : Instance.t) late =
  let jobs = inst.Instance.jobs in
  let deadline jdx = jobs.(jdx).Instance.job.T.deadline in
  let edf =
    List.sort
      (fun a b ->
        compare
          (deadline a, jobs.(a).Instance.job.T.id)
          (deadline b, jobs.(b).Instance.job.T.id))
      (List.init (Array.length jobs) Fun.id)
  in
  let on_time = List.filter (fun jdx -> not late.(jdx)) edf in
  let decided_late =
    List.stable_sort
      (fun a b ->
        compare
          (Instance.pending_exec_total jobs.(a))
          (Instance.pending_exec_total jobs.(b)))
      (List.filter (fun jdx -> late.(jdx)) edf)
  in
  let schedules = ref 0 in
  let run on_time =
    incr schedules;
    Sched.Greedy.solve_with_sequence inst
      (Array.of_list (on_time @ decided_late))
  in
  let rec repair on_time jumped best (last : Solution.t) =
    let ends_late jdx =
      Solution.job_completion inst jdx last.Solution.starts > deadline jdx
    in
    match List.find_opt ends_late on_time with
    | None -> best
    | Some jdx when jdx = List.hd on_time || List.mem jdx jumped -> best
    | Some jdx ->
        let on_time = jdx :: List.filter (( <> ) jdx) on_time in
        let plan = run on_time in
        repair on_time (jdx :: jumped)
          (if Solution.better plan best then plan else best)
          plan
  in
  let first = run on_time in
  let best = repair on_time [] first first in
  (best, first, !schedules)
