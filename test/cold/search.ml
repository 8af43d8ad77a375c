module T = Mapreduce.Types

let problem_of_model (m : Model.t) =
  let deadline_of jdx =
    m.Model.instance.Sched.Instance.jobs.(jdx).Sched.Instance.job.T.deadline
  in
  {
    Cp.Search.store = m.Model.store;
    starts =
      Array.map
        (fun (tv : Model.task_var) ->
          {
            Cp.Search.svar = tv.Model.var;
            duration = tv.Model.task.T.exec_time;
            deadline = deadline_of tv.Model.job_index;
          })
        m.Model.starts;
    lates = Array.mapi (fun jdx late -> (late, deadline_of jdx)) m.Model.lates;
    bound = m.Model.bound;
    bound_pid = m.Model.bound_pid;
    extract = (fun () -> Model.extract m);
    propose = None;
  }

let run model limits = Cp.Search.run_problem (problem_of_model model) limits
