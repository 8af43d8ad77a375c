type figure = {
  id : string;
  title : string;
  x_label : string;
  points : Runner.point list;
}

let synthetic_defaults =
  {
    Mapreduce.Synthetic.default with
    Mapreduce.Synthetic.e_max = 50;
    p = 0.5;
    s_max = 50_000;
    d_m = 5.0;
    lambda = 0.01;
  }

let fig2_3 ~config ~lambdas =
  let points =
    List.concat_map
      (fun lambda ->
        List.map
          (fun manager ->
            let config = { config with Runner.manager } in
            Runner.run_facebook
              ~label:
                (Printf.sprintf "%s lambda=%g"
                   (Opensim.Driver.kind_to_string manager)
                   lambda)
              ~params:{ Mapreduce.Facebook.default with Mapreduce.Facebook.lambda }
              ~config ())
          Opensim.Driver.[ Mrcp_rm; Min_edf_wc ])
      lambdas
  in
  {
    id = "fig2-3";
    title =
      "Fig. 2/3: MRCP-RM vs MinEDF-WC on the Facebook workload (P and T)";
    x_label = "lambda (jobs/s)";
    points;
  }

let sweep ~id ~title ~x_label ~config ~values ~apply ~label =
  let points =
    List.map
      (fun v ->
        Runner.run_synthetic ~label:(label v)
          ~params:(apply synthetic_defaults v)
          ~config ())
      values
  in
  { id; title; x_label; points }

let fig4 ~config =
  sweep ~id:"fig4" ~title:"Fig. 4: effect of task execution time (e_max)"
    ~x_label:"e_max (s)" ~config ~values:[ 10; 50; 100 ]
    ~apply:(fun p v -> { p with Mapreduce.Synthetic.e_max = v })
    ~label:(Printf.sprintf "e_max=%d")

let fig5 ~config =
  sweep ~id:"fig5" ~title:"Fig. 5: effect of earliest start time (s_max)"
    ~x_label:"s_max (s)" ~config
    ~values:[ 10_000; 50_000; 250_000 ]
    ~apply:(fun p v -> { p with Mapreduce.Synthetic.s_max = v })
    ~label:(Printf.sprintf "s_max=%d")

let fig6 ~config =
  sweep ~id:"fig6" ~title:"Fig. 6: effect of earliest-start probability (p)"
    ~x_label:"p" ~config ~values:[ 0.1; 0.5; 0.9 ]
    ~apply:(fun p v -> { p with Mapreduce.Synthetic.p = v })
    ~label:(Printf.sprintf "p=%.1f")

let fig7 ~config =
  sweep ~id:"fig7" ~title:"Fig. 7: effect of deadline multiplier (d_M)"
    ~x_label:"d_M" ~config ~values:[ 2.; 5.; 10. ]
    ~apply:(fun p v -> { p with Mapreduce.Synthetic.d_m = v })
    ~label:(Printf.sprintf "d_M=%.0f")

let fig8 ~config =
  sweep ~id:"fig8" ~title:"Fig. 8: effect of arrival rate (lambda)"
    ~x_label:"lambda (jobs/s)" ~config
    ~values:[ 0.001; 0.01; 0.015; 0.02 ]
    ~apply:(fun p v -> { p with Mapreduce.Synthetic.lambda = v })
    ~label:(Printf.sprintf "lambda=%g")

let fig9 ~config =
  let points =
    List.map
      (fun m ->
        Runner.run_synthetic ~m
          ~label:(Printf.sprintf "m=%d" m)
          ~params:synthetic_defaults ~config ())
      [ 25; 50; 100 ]
  in
  {
    id = "fig9";
    title = "Fig. 9: effect of the number of resources (m)";
    x_label = "m (resources)";
    points;
  }

let ablation_ordering ~config =
  let points =
    List.map
      (fun ordering ->
        let config = { config with Runner.ordering } in
        Runner.run_synthetic
          ~label:(Sched.Greedy.order_to_string ordering)
          ~params:synthetic_defaults ~config ())
      [ Sched.Greedy.By_job_id; Sched.Greedy.Edf; Sched.Greedy.Least_laxity ]
  in
  {
    id = "ablation-ordering";
    title = "Ablation: MRCP-RM job-ordering strategies (§VI.B)";
    x_label = "ordering";
    points;
  }

let ablation_cp ~config =
  (* tighter deadlines than the defaults so scheduling quality matters *)
  let params = { synthetic_defaults with Mapreduce.Synthetic.d_m = 2.0 } in
  let points =
    List.map
      (fun manager ->
        let config = { config with Runner.manager } in
        Runner.run_synthetic
          ~label:(Opensim.Driver.kind_to_string manager)
          ~params ~config ())
      Opensim.Driver.[ Mrcp_rm; Greedy_only; Min_edf_wc; Edf_wc; Fcfs_wc ]
  in
  {
    id = "ablation-cp";
    title = "Ablation: CP search vs greedy-only vs slot baselines (d_M = 2)";
    x_label = "manager";
    points;
  }

let ablation_deferral ~config =
  let params =
    {
      synthetic_defaults with
      Mapreduce.Synthetic.p = 0.9;
      s_max = 250_000;
    }
  in
  let points =
    List.map
      (fun (label, window) ->
        let config = { config with Runner.deferral_window = window } in
        Runner.run_synthetic ~label ~params ~config ())
      [
        ("no deferral", None);
        ("window=300s", Some 300_000);
        ("window=3000s", Some 3_000_000);
      ]
  in
  {
    id = "ablation-deferral";
    title = "Ablation: §V.E deferral of far-future jobs (p=0.9, s_max=250000)";
    x_label = "deferral window";
    points;
  }

let render fig =
  Report.Table.render ~title:fig.title ~headers:Runner.point_headers
    ~rows:(List.map Runner.point_row fig.points)
    ()

let to_csv fig =
  let headers =
    [ "label"; "o_s"; "t_s"; "p_late"; "n_late_mean"; "solves_mean"; "reps" ]
  in
  let rows =
    List.map
      (fun (p : Runner.point) ->
        [
          p.Runner.label;
          Printf.sprintf "%.6f" p.Runner.o_mean;
          Printf.sprintf "%.3f" p.Runner.t_mean;
          Printf.sprintf "%.6f" p.Runner.p_late;
          Printf.sprintf "%.2f" p.Runner.n_late_mean;
          Printf.sprintf "%.1f" p.Runner.solves_mean;
          string_of_int p.Runner.config.Runner.reps;
        ])
      fig.points
  in
  Report.Table.csv ~headers ~rows
