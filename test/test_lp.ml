(* Tests for the LP/MILP optimum oracle ([test/lp], sharing no code with
   [lib/cp]): simplex on known LPs, branch-and-bound on known IPs, and the
   time-indexed scheduling MILP cross-checked against the CP solver on
   exact-quantum instances. *)

module S = Lp.Simplex

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) < eps

let row coeffs relation rhs = { S.coeffs; relation; rhs }

(* --- simplex ------------------------------------------------------------- *)

(* classic: max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  -> x=2,y=6, obj 36 *)
let test_simplex_dantzig () =
  let p =
    {
      S.objective = [| -3.; -5. |];
      rows =
        [
          row [| 1.; 0. |] S.Le 4.;
          row [| 0.; 2. |] S.Le 12.;
          row [| 3.; 2. |] S.Le 18.;
        ];
    }
  in
  match S.solve p with
  | S.Optimal { objective; solution } ->
      Alcotest.(check bool) "objective -36" true (feq objective (-36.));
      Alcotest.(check bool) "x=2" true (feq solution.(0) 2.);
      Alcotest.(check bool) "y=6" true (feq solution.(1) 6.);
      Alcotest.(check bool) "feasible point" true (S.feasible p solution)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality_and_ge () =
  (* min x + y s.t. x + y = 10, x >= 3  -> obj 10 *)
  let p =
    {
      S.objective = [| 1.; 1. |];
      rows = [ row [| 1.; 1. |] S.Eq 10.; row [| 1.; 0. |] S.Ge 3. ];
    }
  in
  match S.solve p with
  | S.Optimal { objective; solution } ->
      Alcotest.(check bool) "objective 10" true (feq objective 10.);
      Alcotest.(check bool) "x >= 3" true (solution.(0) >= 3. -. 1e-6);
      Alcotest.(check bool) "feasible" true (S.feasible p solution)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  let p =
    {
      S.objective = [| 1. |];
      rows = [ row [| 1. |] S.Le 1.; row [| 1. |] S.Ge 2. ];
    }
  in
  Alcotest.(check bool) "infeasible" true (S.solve p = S.Infeasible)

let test_simplex_unbounded () =
  (* min -x with only x >= 0 and x >= 1 *)
  let p = { S.objective = [| -1. |]; rows = [ row [| 1. |] S.Ge 1. ] } in
  Alcotest.(check bool) "unbounded" true (S.solve p = S.Unbounded)

let test_simplex_negative_rhs () =
  (* min x s.t. -x <= -5  (i.e. x >= 5) *)
  let p = { S.objective = [| 1. |]; rows = [ row [| -1. |] S.Le (-5.) ] } in
  match S.solve p with
  | S.Optimal { objective; _ } ->
      Alcotest.(check bool) "x = 5" true (feq objective 5.)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_degenerate_no_cycle () =
  (* a classic degenerate LP; Bland's rule must terminate *)
  let p =
    {
      S.objective = [| -0.75; 150.; -0.02; 6. |];
      rows =
        [
          row [| 0.25; -60.; -0.04; 9. |] S.Le 0.;
          row [| 0.5; -90.; -0.02; 3. |] S.Le 0.;
          row [| 0.; 0.; 1.; 0. |] S.Le 1.;
        ];
    }
  in
  match S.solve p with
  | S.Optimal { objective; solution } ->
      Alcotest.(check bool) "Beale optimum -0.05" true (feq objective (-0.05));
      Alcotest.(check bool) "feasible" true (S.feasible p solution)
  | _ -> Alcotest.fail "expected optimal"

(* random LPs: any Optimal answer must be a feasible point *)
let prop_simplex_solution_feasible =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* m = int_range 1 6 in
      let* obj = list_repeat n (float_range (-5.) 5.) in
      let* rows =
        list_repeat m
          (pair (list_repeat n (float_range (-3.) 3.)) (float_range 0. 10.))
      in
      return
        {
          S.objective = Array.of_list obj;
          rows =
            List.map
              (fun (cs, rhs) -> row (Array.of_list cs) S.Le rhs)
              rows;
        })
  in
  QCheck.Test.make ~count:300 ~name:"simplex optimal point is feasible"
    (QCheck.make gen) (fun p ->
      match S.solve p with
      | S.Optimal { solution; _ } -> S.feasible p solution
      | S.Infeasible -> false (* all-Le with rhs >= 0 admits x = 0 *)
      | S.Unbounded -> true)

(* --- mip ----------------------------------------------------------------- *)

let test_mip_knapsack () =
  (* max 8a + 11b + 6c + 4d, weights 5,7,4,3 <= 14, binaries ->
     optimum 21 at a=0 b=1 c=1 d=1 *)
  let p =
    {
      S.objective = [| -8.; -11.; -6.; -4. |];
      rows =
        [
          row [| 5.; 7.; 4.; 3. |] S.Le 14.;
          row [| 1.; 0.; 0.; 0. |] S.Le 1.;
          row [| 0.; 1.; 0.; 0. |] S.Le 1.;
          row [| 0.; 0.; 1.; 0. |] S.Le 1.;
          row [| 0.; 0.; 0.; 1. |] S.Le 1.;
        ];
    }
  in
  let o = Lp.Mip.solve p ~integer:[ 0; 1; 2; 3 ] in
  (match o.Lp.Mip.best with
  | Some (obj, x) ->
      Alcotest.(check bool) "objective -21" true (feq obj (-21.));
      Alcotest.(check bool) "b,c,d chosen" true
        (feq x.(0) 0. && feq x.(1) 1. && feq x.(2) 1. && feq x.(3) 1.)
  | None -> Alcotest.fail "no incumbent");
  Alcotest.(check bool) "proved" true o.Lp.Mip.proved_optimal

let test_mip_integrality_matters () =
  (* max x s.t. 2x <= 3, x integer -> 1 (relaxation gives 1.5) *)
  let p = { S.objective = [| -1. |]; rows = [ row [| 2. |] S.Le 3. ] } in
  let o = Lp.Mip.solve p ~integer:[ 0 ] in
  match o.Lp.Mip.best with
  | Some (obj, _) -> Alcotest.(check bool) "x=1" true (feq obj (-1.))
  | None -> Alcotest.fail "no incumbent"

let test_mip_infeasible () =
  let p =
    {
      S.objective = [| 1. |];
      rows = [ row [| 2. |] S.Ge 1.; row [| 2. |] S.Le 1. ];
    }
  in
  (* 0.5 <= x <= 0.5: LP feasible at 0.5 but no integer point *)
  let o = Lp.Mip.solve p ~integer:[ 0 ] in
  Alcotest.(check bool) "no integer solution" true (o.Lp.Mip.best = None);
  Alcotest.(check bool) "proved" true o.Lp.Mip.proved_optimal

let test_mip_node_limit () =
  let p =
    {
      S.objective = Array.make 8 (-1.);
      rows =
        List.init 8 (fun i ->
            let c = Array.make 8 0. in
            c.(i) <- 2.;
            row c S.Le 1.)
        @ [ row (Array.make 8 1.) S.Le 3.5 ];
    }
  in
  let o =
    Lp.Mip.solve ~limits:{ Lp.Mip.max_nodes = 2; wall_deadline = None } p
      ~integer:(List.init 8 Fun.id)
  in
  Alcotest.(check bool) "limit respected" true (o.Lp.Mip.nodes <= 2);
  Alcotest.(check bool) "not proved" false o.Lp.Mip.proved_optimal

(* --- time-indexed scheduling MILP ---------------------------------------- *)

module T = Mapreduce.Types

let counter = ref 0

let mk_job ~id ?(est = 0) ~deadline ~maps ~reduces () =
  let fresh kind e =
    incr counter;
    { T.task_id = !counter; job_id = id; kind; exec_time = e; capacity_req = 1 }
  in
  {
    T.id;
    arrival = 0;
    earliest_start = est;
    deadline;
    map_tasks = Array.of_list (List.map (fresh T.Map_task) maps);
    reduce_tasks = Array.of_list (List.map (fresh T.Reduce_task) reduces);
  }

let inst ?(map_cap = 1) ?(reduce_cap = 1) jobs =
  Sched.Instance.of_fresh_jobs ~now:0 ~map_capacity:map_cap
    ~reduce_capacity:reduce_cap jobs

let test_milp_single_job () =
  let i = inst [ mk_job ~id:0 ~deadline:20 ~maps:[ 3 ] ~reduces:[ 4 ] () ] in
  let m = Lp.Milp_model.build i ~quantum:1 ~horizon_slots:12 in
  let sol, outcome = Lp.Milp_model.solve m in
  Alcotest.(check bool) "proved" true outcome.Lp.Mip.proved_optimal;
  match sol with
  | Some s ->
      Alcotest.(check int) "on time" 0 s.Sched.Solution.late_jobs;
      Alcotest.(check (list string)) "feasible" []
        (Sched.Solution.feasibility_errors i s)
  | None -> Alcotest.fail "no solution"

(* The MILP shares no code with the CP solver, so its proved optimum is an
   independent ground truth for every CP entry point.  [quantum] must make
   the MILP exact (divide every time of the instance). *)
let milp_optimum (i, quantum) =
  let horizon = Lp.Milp_model.suggested_horizon_slots i ~quantum + 4 in
  let m = Lp.Milp_model.build i ~quantum ~horizon_slots:horizon in
  let milp_sol, outcome = Lp.Milp_model.solve m in
  Alcotest.(check bool) "milp proved" true outcome.Lp.Mip.proved_optimal;
  match milp_sol with
  | Some s ->
      Alcotest.(check (list string)) "milp feasible" []
        (Sched.Solution.feasibility_errors i s);
      s.Sched.Solution.late_jobs
  | None -> Alcotest.fail "milp found nothing"

(* The cold solver and a fresh session both find the optimum. *)
let check_milp_matches_cp (i, quantum) =
  let optimum = milp_optimum (i, quantum) in
  let agrees name (sol : Sched.Solution.t) =
    Alcotest.(check int) (name ^ " finds the milp optimum") optimum
      sol.Sched.Solution.late_jobs
  in
  agrees "solver" (fst (Cold.Solver.solve i));
  agrees "session"
    (fst
       (Cp.Session.solve (Cp.Session.create ())
          ~options:Cp.Solver.default_options i))

let test_milp_matches_cp_on_small_instances () =
  let rng = Simrand.Rng.create 5 in
  let random _ =
    let n = 1 + Simrand.Rng.int rng 2 in
    let jobs =
      List.init n (fun id ->
          let maps = [ 1 + Simrand.Rng.int rng 4 ] in
          let reduces =
            if Simrand.Rng.bool rng then [ 1 + Simrand.Rng.int rng 3 ] else []
          in
          let total = List.fold_left ( + ) 0 maps + List.fold_left ( + ) 0 reduces in
          mk_job ~id ~deadline:(total + Simrand.Rng.int rng 6) ~maps ~reduces ())
    in
    (inst jobs, 1)
  in
  List.iter check_milp_matches_cp (List.init 10 random)

(* Two contending jobs with several tasks each plus one released late: every
   time is a multiple of 5, so quantum 5 is exact. *)
let test_milp_three_jobs_matches_cp () =
  check_milp_matches_cp
    ( inst ~map_cap:2 ~reduce_cap:2
        [
          mk_job ~id:0 ~deadline:40 ~maps:[ 10; 10 ] ~reduces:[ 10 ] ();
          mk_job ~id:1 ~deadline:35 ~maps:[ 15 ] ~reduces:[ 10 ] ();
          mk_job ~id:2 ~est:5 ~deadline:60 ~maps:[ 10 ] ~reduces:[] ();
        ],
      5 )

(* One session across invocations, as a manager drives it while jobs
   arrive: each instance adds a job released no earlier than the last one,
   and the session carries its store, its warm plan and its optimality
   certificate from one invocation to the next.  At every invocation the
   MILP's optimum of that instance checks the session's Σ N_j, and checks
   that the lower bound it reports, the carried certificate included, is
   sound.  Some invocation must owe its bound to the certificate, or the
   second check shows nothing. *)
let test_session_sequence_matches_milp () =
  let rng = Simrand.Rng.create 11 in
  let carried = ref 0 in
  for _ = 1 to 20 do
    let session = Cp.Session.create () in
    let n = 2 + Simrand.Rng.int rng 2 in
    let est = ref 0 in
    let jobs =
      List.init n (fun id ->
          if id > 0 then est := !est + Simrand.Rng.int rng 3;
          let maps = [ 1 + Simrand.Rng.int rng 3 ] in
          let reduces =
            if Simrand.Rng.bool rng then [ 1 + Simrand.Rng.int rng 2 ] else []
          in
          let total =
            List.fold_left ( + ) 0 maps + List.fold_left ( + ) 0 reduces
          in
          mk_job ~id ~est:!est
            ~deadline:(!est + total + Simrand.Rng.int rng 4)
            ~maps ~reduces ())
    in
    for k = 1 to n do
      let i = inst (List.filteri (fun id _ -> id < k) jobs) in
      let optimum = milp_optimum (i, 1) in
      let sol, stats =
        Cp.Session.solve session ~options:Cp.Solver.default_options i
      in
      Alcotest.(check (list string)) "session plan feasible" []
        (Sched.Solution.feasibility_errors i sol);
      Alcotest.(check int)
        (Printf.sprintf "invocation %d finds the milp optimum" k)
        optimum sol.Sched.Solution.late_jobs;
      let lb = stats.Cp.Solver.lower_bound in
      if lb > optimum then
        Alcotest.failf "invocation %d: lower bound %d above the optimum %d" k
          lb optimum;
      if lb > Cp.Solver.late_lower_bound (Cp.Solver.prepare i) then
        incr carried
    done
  done;
  Alcotest.(check bool) "the certificate raised some bound" true (!carried > 0)

let test_milp_respects_est () =
  let i = inst [ mk_job ~id:0 ~est:5 ~deadline:30 ~maps:[ 2 ] ~reduces:[] () ] in
  let m = Lp.Milp_model.build i ~quantum:1 ~horizon_slots:12 in
  let sol, _ = Lp.Milp_model.solve m in
  match sol with
  | Some s ->
      let start =
        Sched.Solution.start_of i s
          ~task_id:i.Sched.Instance.jobs.(0).Sched.Instance.pending_maps.(0).T.task_id
      in
      Alcotest.(check bool) "start >= est" true (start >= 5)
  | None -> Alcotest.fail "no solution"

let test_milp_rejects_frozen () =
  let i = inst [ mk_job ~id:0 ~deadline:20 ~maps:[ 3 ] ~reduces:[] () ] in
  let pj = i.Sched.Instance.jobs.(0) in
  incr counter;
  let frozen =
    { T.task_id = !counter; job_id = 0; kind = T.Map_task; exec_time = 5; capacity_req = 1 }
  in
  let pj =
    { pj with Sched.Instance.fixed_maps = [| { Sched.Instance.task = frozen; start = 0 } |] }
  in
  let i = Sched.Instance.with_jobs i [| pj |] in
  Alcotest.(check bool) "frozen rejected" true
    (try
       ignore (Lp.Milp_model.build i ~quantum:1 ~horizon_slots:12);
       false
     with Invalid_argument _ -> true)

let test_milp_variable_count_explodes () =
  (* the documented scaling contrast: variables grow with horizon x tasks *)
  let i =
    inst
      [ mk_job ~id:0 ~deadline:100 ~maps:[ 2; 2; 2; 2 ] ~reduces:[ 2; 2 ] () ]
  in
  let small = Lp.Milp_model.build i ~quantum:1 ~horizon_slots:20 in
  let large = Lp.Milp_model.build i ~quantum:1 ~horizon_slots:60 in
  Alcotest.(check bool) "variables grow with horizon" true
    (Lp.Milp_model.variables large > 2 * Lp.Milp_model.variables small)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "dantzig" `Quick test_simplex_dantzig;
          Alcotest.test_case "equality and ge" `Quick
            test_simplex_equality_and_ge;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "degenerate (Beale)" `Quick
            test_simplex_degenerate_no_cycle;
        ] );
      ( "mip",
        [
          Alcotest.test_case "knapsack" `Quick test_mip_knapsack;
          Alcotest.test_case "integrality" `Quick test_mip_integrality_matters;
          Alcotest.test_case "integer infeasible" `Quick test_mip_infeasible;
          Alcotest.test_case "node limit" `Quick test_mip_node_limit;
        ] );
      ( "milp scheduling",
        [
          Alcotest.test_case "single job" `Quick test_milp_single_job;
          Alcotest.test_case "matches cp" `Slow
            test_milp_matches_cp_on_small_instances;
          Alcotest.test_case "three-job instance matches cp" `Quick
            test_milp_three_jobs_matches_cp;
          Alcotest.test_case "session sequence matches milp" `Quick
            test_session_sequence_matches_milp;
          Alcotest.test_case "respects est" `Quick test_milp_respects_est;
          Alcotest.test_case "rejects frozen" `Quick test_milp_rejects_frozen;
          Alcotest.test_case "variable explosion" `Quick
            test_milp_variable_count_explodes;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_simplex_solution_feasible ] );
    ]
