module T = Mapreduce.Types

type limits = {
  fail_limit : int;
  node_limit : int;
  wall_deadline : float option;
  target : int option;
}

let no_limits =
  {
    fail_limit = 0;
    node_limit = 0;
    wall_deadline = None;
    target = None;
  }

type start_info = { svar : Store.var; duration : int; deadline : int }

type problem = {
  store : Store.t;
  starts : start_info array;
  lates : (Store.var * int) array;
  bound : int ref;
  bound_pid : Store.propagator_id;
  extract : unit -> Sched.Solution.t;
  propose : (bool array -> Sched.Solution.t) option;
}

type stop_cause =
  | Exhausted
  | Target_met
  | Node_budget
  | Fail_budget
  | Wall_clock

let stop_reason_of_cause = function
  | Exhausted | Target_met -> Obs.Solve_stats.Proved
  | Node_budget -> Obs.Solve_stats.Node_limit
  | Fail_budget -> Obs.Solve_stats.Fail_limit
  | Wall_clock -> Obs.Solve_stats.Wall_limit

type outcome = {
  best : Sched.Solution.t option;
  proved_optimal : bool;
  stopped : stop_cause;
  nodes : int;
  failures : int;
  leaf_asked : int;
  leaf_tried : int;
  leaf_accepted : int;
}

exception Limit_reached

type state = {
  problem : problem;
  limits : limits;
  (* [Obs.Trace.enabled] sampled once per search, so the hot path tests a
     plain immutable bool instead of an atomic. *)
  tracing : bool;
  (* lates indices presorted by (deadline, index): [select_late] resumes
     from the first entry not yet fixed on the current path instead of
     rescanning all jobs at every node *)
  late_order : int array;
  (* the list-schedule leaf's argument: each job's lateness decision, by
     [lates] index, rewritten before every proposal *)
  decided_late : bool array;
  mutable best : Sched.Solution.t option;
  mutable nodes : int;
  mutable failures : int;
  mutable leaf_asked : int;
  mutable leaf_tried : int;
  mutable leaf_accepted : int;
  mutable stop_cause : stop_cause;  (* which hard limit cut the search *)
  mutable late_cursor : int;  (* out-param of [select_late] *)
  mutable ticks : int;  (* countdown to the next wall-clock check *)
}

(* The closures below are only allocated on the tracing branch, so the
   untraced path is exactly the direct call. *)
let propagate_st st s =
  if st.tracing then
    Obs.Trace.with_span ~cat:"search" "propagate" (fun () -> Store.propagate s)
  else Store.propagate s

let backtrack_st st s =
  if st.tracing then
    Obs.Trace.with_span ~cat:"search" "backtrack" (fun () -> Store.backtrack s)
  else Store.backtrack s

let check_limits st =
  if st.limits.node_limit > 0 && st.nodes >= st.limits.node_limit then begin
    st.stop_cause <- Node_budget;
    raise Limit_reached
  end;
  if st.limits.fail_limit > 0 && st.failures >= st.limits.fail_limit then begin
    st.stop_cause <- Fail_budget;
    raise Limit_reached
  end;
  st.ticks <- st.ticks - 1;
  if st.ticks <= 0 then begin
    st.ticks <- 64;
    match st.limits.wall_deadline with
    | Some deadline when Obs.Clock.now () > deadline ->
        st.stop_cause <- Wall_clock;
        raise Limit_reached
    | _ -> ()
  end

(* Pick the undecided lateness variable of the job with the earliest
   deadline: the first undecided entry of [late_order] at or after
   [late_from] (everything before was fixed when skipped, and fixing is
   monotone down a branch).  Returns the lates index, or -1 when all are
   decided; [st.late_cursor] is set to the resume position for the
   children. *)
let select_late st late_from =
  let mins = Store.mins st.problem.store
  and maxs = Store.maxs st.problem.store in
  let lates = st.problem.lates in
  let order = st.late_order in
  let n = Array.length order in
  let k = ref late_from and scanning = ref true in
  (* [order] is a permutation of the [lates] indices, and [run_problem]
     checked every late variable against the bound arrays *)
  while !scanning && !k < n do
    let v = fst (Array.unsafe_get lates (Array.unsafe_get order !k)) in
    if Array.unsafe_get mins v = Array.unsafe_get maxs v then incr k
    else scanning := false
  done;
  st.late_cursor <- !k;
  if !k >= n then -1 else order.(!k)

(* Pick the SetTimes candidate: unfixed, and not postponed at its current
   est.  postponed.(i) holds the est at which task i was postponed, or
   min_int. *)
let select_start st postponed =
  let mins = Store.mins st.problem.store
  and maxs = Store.maxs st.problem.store in
  let starts = st.problem.starts in
  let best = ref (-1) in
  (* the (est, slack, -duration) selection key, kept in three int refs so
     the scan — O(tasks) per node — never allocates or falls into
     polymorphic compare *)
  let b_est = ref max_int and b_slack = ref max_int and b_dur = ref min_int in
  (* [postponed] has one entry per start, and [run_problem] checked every
     start variable against the bound arrays *)
  for i = 0 to Array.length starts - 1 do
    let info = Array.unsafe_get starts i in
    let est = Array.unsafe_get mins info.svar in
    if est <> Array.unsafe_get maxs info.svar then begin
      if Array.unsafe_get postponed i <> est then begin
        let slack = info.deadline - est - info.duration in
        let dur = info.duration in
        if
          est < !b_est
          || est = !b_est
             && (slack < !b_slack || (slack = !b_slack && dur > !b_dur))
        then begin
          b_est := est;
          b_slack := slack;
          b_dur := dur;
          best := i
        end
      end
    end
  done;
  !best

let all_starts_fixed st =
  let mins = Store.mins st.problem.store
  and maxs = Store.maxs st.problem.store in
  Array.for_all
    (fun info -> mins.(info.svar) = maxs.(info.svar))
    st.problem.starts

let record_solution st =
  (* The true late count can be below Σ N_j (constraint (4) is
     one-directional), and the bound may have been tightened by a solution in
     a sibling subtree, so re-check improvement here. *)
  let sol = st.problem.extract () in
  let late_count = sol.Sched.Solution.late_jobs in
  if late_count < !(st.problem.bound) then begin
    st.best <- Some sol;
    st.problem.bound := late_count;
    match st.limits.target with
    | Some target when late_count <= target ->
        st.stop_cause <- Target_met;
        raise Limit_reached
    | _ -> ()
  end

(* Propagate a child's decision.  [cut] is the bound the objective cut
   last ran at on this path: the cut reads the late variables' minima,
   which wake it through its watches, and the bound, which nothing
   watches.  So it is re-run explicitly only when a solution found since
   lowered the bound; otherwise the parent's fixpoint already holds for it.
   Returns the bound the child propagated at. *)
let propagate_child st s cut =
  let bound = !(st.problem.bound) in
  if bound <> cut then Store.schedule s st.problem.bound_pid;
  propagate_st st s;
  bound

(* The list-schedule leaf: one complete plan proposed where the lateness
   phase ends on a path.  When its late count beats the bound, one level
   fixes every pending start at the proposal, re-runs the cut and
   propagates; the plan is recorded only if the propagators accept it, so
   soundness never rests on the proposer.  The leaf prunes nothing: the
   caller goes on with SetTimes either way. *)
let list_leaf st propose =
  let p = st.problem in
  let s = p.store in
  let mins = Store.mins s in
  Array.iteri
    (fun j (late, _) -> st.decided_late.(j) <- mins.(late) > 0)
    p.lates;
  let plan = propose st.decided_late in
  st.leaf_asked <- st.leaf_asked + 1;
  if plan.Sched.Solution.late_jobs < !(p.bound) then begin
    st.leaf_tried <- st.leaf_tried + 1;
    check_limits st;
    st.nodes <- st.nodes + 1;
    Store.push_level s;
    (try
       let starts = plan.Sched.Solution.starts in
       Array.iteri (fun k info -> Store.fix s info.svar starts.(k)) p.starts;
       Store.schedule s p.bound_pid;
       propagate_st st s;
       st.leaf_accepted <- st.leaf_accepted + 1;
       record_solution st
     with Store.Fail _ -> st.failures <- st.failures + 1);
    backtrack_st st s
  end

let rec dfs st postponed late_from cut =
  check_limits st;
  st.nodes <- st.nodes + 1;
  match select_late st late_from with
  | -1 ->
      (* all lates decided.  A node that resumed inside the order is the
         first past the lateness phase on its path: the leaf's place. *)
      (match st.problem.propose with
      | Some propose
        when late_from < Array.length st.late_order
             && not (all_starts_fixed st) ->
          list_leaf st propose
      | _ -> ());
      (* children resume past the whole order *)
      start_phase st postponed st.late_cursor cut
  | j ->
      let cur = st.late_cursor in
      branch_late st postponed cur j cut

and start_phase st postponed late_from cut =
  match select_start st postponed with
  | -1 ->
      if all_starts_fixed st then record_solution st
        (* else every unfixed task is postponed at an unchanged est: a
           dominated dead end, counted as a failure so that [fail_limit]
           bounds a SetTimes tree of postpones *)
      else st.failures <- st.failures + 1
  | i ->
      branch_asym st postponed late_from i
        (Store.min_of st.problem.store st.problem.starts.(i).svar)
        cut

(* Two store-changing branches over a lateness variable: N_j <= 0, then its
   complement N_j >= 1. *)
and branch_late st postponed late_from j cut =
  let s = st.problem.store in
  let late = fst st.problem.lates.(j) in
  let attempt f =
    Store.push_level s;
    (try
       f ();
       dfs st postponed late_from (propagate_child st s cut)
     with Store.Fail _ -> st.failures <- st.failures + 1);
    backtrack_st st s
  in
  let left () = attempt (fun () -> Store.set_max s late 0)
  and right () = attempt (fun () -> Store.set_min s late 1) in
  if st.tracing then begin
    Obs.Trace.with_span ~cat:"search" "branch" left;
    Obs.Trace.with_span ~cat:"search" "branch" right
  end
  else begin
    left ();
    right ()
  end

(* SetTimes: left fixes at est and changes the store; right only updates
   the postponed bookkeeping in place (no store change, hence no
   propagation and no new level needed) and undoes it afterwards — the
   restore is skipped on a [Limit_reached] unwind, which is fine because
   that ends the search. *)
and branch_asym st postponed late_from i est cut =
  let s = st.problem.store in
  let attempt () =
    Store.push_level s;
    (try
       Store.fix s st.problem.starts.(i).svar est;
       dfs st postponed late_from (propagate_child st s cut)
     with Store.Fail _ -> st.failures <- st.failures + 1);
    backtrack_st st s
  in
  if st.tracing then Obs.Trace.with_span ~cat:"search" "branch" attempt
  else attempt ();
  let old = postponed.(i) in
  postponed.(i) <- est;
  (* the postpone branch changes no store state: same node, same cut *)
  dfs st postponed late_from cut;
  postponed.(i) <- old

let run_problem problem limits =
  let tracing = Obs.Trace.enabled () in
  let t0 = if tracing then Obs.Trace.now_us () else 0. in
  let n_lates = Array.length problem.lates in
  let late_order = Array.init n_lates Fun.id in
  Sched.Index_sort.sort late_order ~lo:0 ~hi:n_lates
    ~key:(Array.map snd problem.lates) ~tie:(Array.init n_lates Fun.id);
  let st =
    {
      problem;
      limits;
      tracing;
      late_order;
      decided_late = Array.make n_lates false;
      best = None;
      nodes = 0;
      failures = 0;
      leaf_asked = 0;
      leaf_tried = 0;
      leaf_accepted = 0;
      stop_cause = Exhausted;
      late_cursor = 0;
      ticks = 1;
    }
  in
  let s = problem.store in
  (* the hot loops index the bound arrays at these unchecked; the arrays
     only grow *)
  let check_var v =
    if v < 0 || v >= Array.length (Store.mins s) then
      invalid_arg "Search.run_problem: not a variable of the store"
  in
  Array.iter (fun info -> check_var info.svar) problem.starts;
  Array.iter (fun (v, _) -> check_var v) problem.lates;
  (* The search never unwinds below its entry level: a {!Session} pushes a
     guard level (the armed objective cut) before calling in, and that state
     belongs to the caller.  At the root ([base = 0]) this is exactly the
     historical backtrack-to-root behaviour. *)
  let base = Store.level s in
  let postponed = Array.make (Array.length problem.starts) min_int in
  let proved_optimal =
    try
      (try
         (* the root runs the cut at the bound the search starts from *)
         dfs st postponed 0 (propagate_child st s min_int)
       with Store.Fail _ -> st.failures <- st.failures + 1);
      true
    with Limit_reached -> false
  in
  Store.backtrack_to s base;
  if tracing then
    Obs.Trace.complete ~cat:"search" ~ts:t0 "search"
      ~args:
        [
          ("nodes", Obs.Trace.Int st.nodes);
          ("failures", Obs.Trace.Int st.failures);
          ("proved_optimal", Obs.Trace.Bool proved_optimal);
        ];
  {
    best = st.best;
    proved_optimal;
    stopped = (if proved_optimal then Exhausted else st.stop_cause);
    nodes = st.nodes;
    failures = st.failures;
    leaf_asked = st.leaf_asked;
    leaf_tried = st.leaf_tried;
    leaf_accepted = st.leaf_accepted;
  }

(* --- MapReduce-model entry point -------------------------------------- *)

let problem_of_model (m : Model.t) =
  let deadline_of jdx =
    m.Model.instance.Sched.Instance.jobs.(jdx).Sched.Instance.job.T.deadline
  in
  {
    store = m.Model.store;
    starts =
      Array.map
        (fun (tv : Model.task_var) ->
          {
            svar = tv.Model.var;
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

let run model limits = run_problem (problem_of_model model) limits
