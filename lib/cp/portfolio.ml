module Instance = Sched.Instance
module Solution = Sched.Solution
module Greedy = Sched.Greedy

type worker_stats = {
  strategy : string;
  w_nodes : int;
  w_lns_moves : int;
}

type stats = {
  base : Solver.stats;
  workers : worker_stats array;
  winner : string;
  domains_used : int;
}

let worker_of_solver ~strategy (s : Solver.stats) =
  {
    strategy;
    w_nodes = s.Solver.nodes;
    w_lns_moves = s.Solver.lns_moves;
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

let solve ?(domains = 1) ?(options = Solver.default_options) ?pass ?warm
    ?carried_bound (inst : Instance.t) =
  let t0 = Obs.Clock.now () in
  let single ~strategy (sol, s) =
    ( sol,
      {
        base = s;
        workers = [| worker_of_solver ~strategy s |];
        winner = strategy;
        domains_used = 1;
      } )
  in
  if domains <= 1 then
    single ~strategy:"sequential"
      (Solver.solve_linked ~options ~link:Solver.null_link ?pass
         ?carried_bound ?warm inst)
  else
    match Solver.settle ~options ?pass ?warm ?carried_bound inst with
    | Some settled ->
        (* the common open-system case: the starting incumbent (greedy
           seed, or the warm-start candidate carried over from the previous
           solve) meets the lower bound, classic or carried, so the
           pipeline's fast path is optimal — don't spawn domains *)
        single ~strategy:"seed" settled
    | None -> (
        (* Shared state: the incumbent Σ N_j (an Atomic every worker prunes
           against) and the first-to-prove-optimal cancellation flag.
           Workers share nothing else mutable — each builds its own store,
           model and RNG on its own domain. *)
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
          (* the caller's pass is scratch of the calling domain: only
             worker 0, which runs there, may use it *)
          let pass = if i = 0 then pass else None in
          let sol, s =
            Obs.Trace.with_span ~cat:"portfolio" ("worker:" ^ name) (fun () ->
                Solver.solve_linked ~options:opts ~link ?pass ?carried_bound
                  ?warm inst)
          in
          if s.Solver.proved_optimal then Atomic.set stop true;
          (name, sol, s)
        in
        let others =
          Array.init (domains - 1) (fun k ->
              Domain.spawn (fun () -> worker (k + 1) ()))
        in
        (* worker 0 (the sequential replica) runs on the calling domain, so
           a [domains]-way portfolio uses exactly [domains] domains *)
        let first = try Ok (worker 0 ()) with e -> Error e in
        let rest =
          Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) others
        in
        (* every domain is joined before the first failure is re-raised *)
        let results =
          List.map
            (function Ok r -> r | Error e -> raise e)
            (first :: Array.to_list rest)
        in
        match results with
        | [] -> assert false
        | (name0, sol0, s0) :: _ ->
            let best_name, best_sol =
              List.fold_left
                (fun (bn, bs) (name, sol, _) ->
                  if Solution.better sol bs then (name, sol) else (bn, bs))
                (name0, sol0) results
            in
            let workers =
              Array.of_list
                (List.map
                   (fun (name, _, s) -> worker_of_solver ~strategy:name s)
                   results)
            in
            let sum f =
              List.fold_left (fun acc (_, _, s) -> acc + f s) 0 results
            in
            let prover =
              List.find_opt (fun (_, _, s) -> s.Solver.proved_optimal) results
            in
            let proved =
              prover <> None
              || best_sol.Solution.late_jobs <= s0.Solver.lower_bound
            in
            (* the prover's reason when someone proved (the losers report
               [Interrupted] from the cancellation); the sequential
               replica's otherwise *)
            let stop_reason =
              match prover with
              | Some (_, _, s) -> s.Solver.stop_reason
              | None when proved -> Obs.Solve_stats.Proved
              | None -> s0.Solver.stop_reason
            in
            let metrics =
              match
                List.filter_map (fun (_, _, s) -> s.Solver.metrics) results
              with
              | [] -> None
              | snaps -> Some (Obs.Metrics.merge_all snaps)
            in
            (* seed, bound and warm flag are worker 0's: every worker
               bounds the same instance the same way *)
            let base =
              {
                s0 with
                Solver.proved_optimal = proved;
                stop_reason;
                nodes = sum (fun s -> s.Solver.nodes);
                failures = sum (fun s -> s.Solver.failures);
                lns_moves = sum (fun s -> s.Solver.lns_moves);
                elapsed = Obs.Clock.now () -. t0;
                metrics;
              }
            in
            ( best_sol,
              { base; workers; winner = best_name; domains_used = domains } ))
