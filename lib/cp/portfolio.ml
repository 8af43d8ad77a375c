module Instance = Sched.Instance
module Solution = Sched.Solution
module Greedy = Sched.Greedy

type worker_stats = {
  strategy : string;
  w_late_jobs : int;
  w_nodes : int;
  w_failures : int;
  w_lns_moves : int;
  w_proved : bool;
  w_elapsed : float;
}

type stats = {
  base : Solver.stats;
  workers : worker_stats array;
  winner : string;
  domains_used : int;
}

let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let pp_stats fmt s =
  Format.fprintf fmt "portfolio<%a domains=%d winner=%s workers=[" Solver.pp_stats
    s.base s.domains_used s.winner;
  Array.iteri
    (fun i w ->
      Format.fprintf fmt "%s%s:late=%d,n=%d,f=%d,lns=%d%s"
        (if i > 0 then " " else "")
        w.strategy w.w_late_jobs w.w_nodes w.w_failures w.w_lns_moves
        (if w.w_proved then ",proved" else ""))
    s.workers;
  Format.fprintf fmt "]>"

let worker_of_solver ~strategy (sol : Solution.t) (s : Solver.stats) =
  {
    strategy;
    w_late_jobs = sol.Solution.late_jobs;
    w_nodes = s.Solver.nodes;
    w_failures = s.Solver.failures;
    w_lns_moves = s.Solver.lns_moves;
    w_proved = s.Solver.proved_optimal;
    w_elapsed = s.Solver.elapsed;
  }

(* Worker 0 replicates the sequential solver exactly (same ordering, same
   tie-break, same RNG seed, isolated from foreign bounds); workers 1.. walk
   the (ordering × tie-break) grid with distinct RNG streams. *)
let strategy (base : Solver.options) i =
  if i = 0 then (base, "sequential", true)
  else begin
    let orders = [| Greedy.Edf; Greedy.Least_laxity; Greedy.By_job_id |] in
    let ties =
      [| Search.Slack_first; Search.Duration_first; Search.Deadline_first |]
    in
    let idx = i - 1 in
    let ordering = orders.(idx mod 3) in
    (* Latin-square walk of the grid, varying the tie-break immediately:
       the greedy seed already tries every ordering, so for B&B workers the
       tie-break is the axis that actually changes the tree explored. *)
    let tie_break = ties.((idx + (idx / 3) + 1) mod 3) in
    let seed = base.Solver.seed + (7919 * i) in
    let name =
      Printf.sprintf "%s/%s/s%d"
        (Greedy.order_to_string ordering)
        (Search.tie_break_to_string tie_break)
        seed
    in
    ({ base with Solver.ordering; tie_break; seed }, name, false)
  end

let solve ?(domains = 1) ?(options = Solver.default_options)
    (inst : Instance.t) =
  let t0 = Obs.Clock.now () in
  if domains <= 1 then begin
    let sol, s = Solver.solve ~options inst in
    ( sol,
      {
        base = s;
        workers = [| worker_of_solver ~strategy:"sequential" sol s |];
        winner = "sequential";
        domains_used = 1;
      } )
  end
  else begin
    let lb = Solver.late_lower_bound inst in
    let seed_sol, warm_seeded = Solver.starting_incumbent ~options ~lb inst in
    if seed_sol.Solution.late_jobs <= lb then begin
      (* the common open-system case: the starting incumbent (greedy seed,
         or the warm-start candidate carried over from the previous solve)
         meets the lower bound, so the sequential fast path is optimal —
         don't spawn domains.  The stats mirror Solver.solve's fast path
         exactly. *)
      let s =
        {
          Solver.seed_late = seed_sol.Solution.late_jobs;
          lower_bound = lb;
          proved_optimal = true;
          warm_seeded;
          stop_reason =
            (if warm_seeded then Obs.Solve_stats.Cache_hit
             else Obs.Solve_stats.Proved);
          nodes = 0;
          failures = 0;
          lns_moves = 0;
          elapsed = Obs.Clock.now () -. t0;
          metrics =
            (if options.Solver.instrument then Some Obs.Metrics.empty
             else None);
        }
      in
      ( seed_sol,
        {
          base = s;
          workers = [| worker_of_solver ~strategy:"seed" seed_sol s |];
          winner = "seed";
          domains_used = 1;
        } )
    end
    else begin
      (* Shared state: the incumbent Σ N_j (an Atomic every worker prunes
         against) and the first-to-prove-optimal cancellation flag.  Workers
         share nothing else mutable — each builds its own store, model and
         RNG on its own domain. *)
      let incumbent = Atomic.make max_int in
      let stop = Atomic.make false in
      let rec publish v =
        let cur = Atomic.get incumbent in
        if v < cur then begin
          if Atomic.compare_and_set incumbent cur v then begin
            if Obs.Trace.enabled () then
              Obs.Trace.instant ~cat:"portfolio" "incumbent"
                ~args:[ ("late", Obs.Trace.Int v) ]
          end
          else publish v
        end
      in
      let worker i () =
        let opts, name, isolated = strategy options i in
        let link =
          {
            Solver.should_stop = (fun () -> Atomic.get stop);
            global_bound = (fun () -> Atomic.get incumbent);
            announce = publish;
            isolated;
          }
        in
        let sol, s =
          Obs.Trace.with_span ~cat:"portfolio" ("worker:" ^ name) (fun () ->
              Solver.solve_linked ~options:opts ~link inst)
        in
        if s.Solver.proved_optimal then Atomic.set stop true;
        (name, sol, s)
      in
      let others =
        Array.init (domains - 1) (fun k ->
            Domain.spawn (fun () -> worker (k + 1) ()))
      in
      (* worker 0 (the sequential replica) runs on the calling domain, so a
         [domains]-way portfolio uses exactly [domains] domains *)
      let first = (try Ok (worker 0 ()) with e -> Error e) in
      let rest =
        Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) others
      in
      let results =
        Array.to_list (Array.append [| first |] rest)
        |> List.filter_map (function Ok r -> Some r | Error _ -> None)
      in
      (match
         Array.find_opt
           (function Error _ -> true | Ok _ -> false)
           (Array.append [| first |] rest)
       with
      | Some (Error e) -> raise e
      | _ -> ());
      match results with
      | [] -> assert false
      | (name0, sol0, _) :: _ ->
          let best_name, best_sol =
            List.fold_left
              (fun (bn, bs) (name, sol, _) ->
                if Solution.better sol bs then (name, sol) else (bn, bs))
              (name0, sol0) results
          in
          let workers =
            Array.of_list
              (List.map
                 (fun (name, sol, s) -> worker_of_solver ~strategy:name sol s)
                 results)
          in
          let sum f = List.fold_left (fun acc (_, _, s) -> acc + f s) 0 results in
          let seed_late =
            match results with (_, _, s0) :: _ -> s0.Solver.seed_late | [] -> 0
          in
          let warm_seeded =
            match results with
            | (_, _, s0) :: _ -> s0.Solver.warm_seeded
            | [] -> false
          in
          let proved =
            List.exists (fun (_, _, s) -> s.Solver.proved_optimal) results
            || best_sol.Solution.late_jobs <= lb
          in
          let metrics =
            match
              List.filter_map (fun (_, _, s) -> s.Solver.metrics) results
            with
            | [] -> None
            | snaps -> Some (Obs.Metrics.merge_all snaps)
          in
          (* the prover's reason when someone proved (the losers report
             [Interrupted] from the cancellation); the sequential replica's
             otherwise *)
          let stop_reason =
            match
              List.find_opt (fun (_, _, s) -> s.Solver.proved_optimal) results
            with
            | Some (_, _, s) -> s.Solver.stop_reason
            | None when proved -> Obs.Solve_stats.Proved
            | None -> (
                match results with
                | (_, _, s0) :: _ -> s0.Solver.stop_reason
                | [] -> Obs.Solve_stats.Proved)
          in
          let base =
            {
              Solver.seed_late;
              lower_bound = lb;
              proved_optimal = proved;
              warm_seeded;
              stop_reason;
              nodes = sum (fun s -> s.Solver.nodes);
              failures = sum (fun s -> s.Solver.failures);
              lns_moves = sum (fun s -> s.Solver.lns_moves);
              elapsed = Obs.Clock.now () -. t0;
              metrics;
            }
          in
          (best_sol, { base; workers; winner = best_name; domains_used = domains })
    end
  end
