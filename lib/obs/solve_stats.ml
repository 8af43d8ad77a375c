type stop_reason =
  | Proved
  | Hit_carried_bound
  | Cache_hit
  | Fail_limit
  | Node_limit
  | Wall_limit

let stop_reason_to_string = function
  | Proved -> "proved"
  | Hit_carried_bound -> "hit_carried_bound"
  | Cache_hit -> "cache_hit"
  | Fail_limit -> "fail_limit"
  | Node_limit -> "node_limit"
  | Wall_limit -> "wall_limit"

let all_stop_reasons =
  [ Proved; Hit_carried_bound; Cache_hit; Fail_limit; Node_limit; Wall_limit ]

type t = {
  seed_late : int;
  lower_bound : int;
  proved_optimal : bool;
  warm_seeded : bool;
  stop_reason : stop_reason;
  nodes : int;
  failures : int;
  lns_moves : int;
  elapsed : float;
  seed_s : float;
  bound_s : float;
  warm_s : float;
  list_s : float;
  sync_s : float;
  search_s : float;
  metrics : Metrics.snapshot option;
}

let pp fmt s =
  Format.fprintf fmt
    "cp-stats<seed_late=%d lb=%d optimal=%b%s stop=%s nodes=%d fails=%d \
     t=%.4fs seed=%.4fs (bound=%.4fs warm=%.4fs list=%.4fs) sync=%.4fs \
     search=%.4fs>"
    s.seed_late s.lower_bound s.proved_optimal
    (if s.warm_seeded then " warm" else "")
    (stop_reason_to_string s.stop_reason)
    s.nodes s.failures s.elapsed s.seed_s s.bound_s s.warm_s
    s.list_s s.sync_s s.search_s

let to_metrics s =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "solver/solves") 1;
  Metrics.add (Metrics.counter m "solver/nodes") s.nodes;
  Metrics.add (Metrics.counter m "solver/failures") s.failures;
  Metrics.add (Metrics.counter m "solver/lns_moves") s.lns_moves;
  if s.proved_optimal then Metrics.add (Metrics.counter m "solver/proofs") 1;
  if s.warm_seeded then
    Metrics.add (Metrics.counter m "solver/warm_seeded") 1;
  Metrics.add
    (Metrics.counter m
       ("solver/stop/" ^ stop_reason_to_string s.stop_reason))
    1;
  Metrics.observe (Metrics.histogram m "solver/solve_s") s.elapsed;
  Metrics.observe (Metrics.histogram m "solver/seed_s") s.seed_s;
  Metrics.observe (Metrics.histogram m "solver/bound_s") s.bound_s;
  Metrics.observe (Metrics.histogram m "solver/warm_s") s.warm_s;
  Metrics.observe (Metrics.histogram m "solver/list_s") s.list_s;
  Metrics.observe (Metrics.histogram m "solver/sync_s") s.sync_s;
  Metrics.observe (Metrics.histogram m "solver/search_s") s.search_s;
  let base = Metrics.snapshot m in
  match s.metrics with
  | None -> base
  | Some inner -> Metrics.merge base inner
