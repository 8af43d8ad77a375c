(** Decision-journal audit: parse an {!Obs.Journal} JSONL file back and
    explain a run from its journal alone — per-job timelines, lateness
    attribution (queue wait vs execution vs solver overhead), exact
    decision-latency quantiles, and an independent recomputation of the
    run's headline totals (Σ N_j, O) cross-checked against the journal's
    own "run-end" line.

    The cross-checks are a correctness oracle over the whole
    journal-emission pipeline: the totals are recomputed from the per-job
    and per-invocation lines only, replaying the manager's float additions
    in sequence order, so they must match the simulator's figures {e
    exactly} (integer equality for counts, bitwise [Float.equal] for the
    overhead sums — journal floats round-trip). *)

type job_audit = {
  job : int;
  est : int;
  deadline : int;
  arrival : int;  (** virtual arrival time (from the "arrival" event) *)
  deferred : bool;  (** was parked by the §V.E deferral rule on submit *)
  completion : int;
  late : bool;
  first_start : int;  (** first task start; [completion] if never started *)
  queue_wait_ms : int;  (** first_start − s_j *)
  exec_ms : int;  (** completion − first_start *)
  lateness_ms : int;  (** max 0 (completion − d_j) *)
  solver_overhead_s : float;
      (** wall-clock solver+matchmaking seconds attributed to the job *)
  transitions : (int * string * string) list;
      (** SLA state changes: (virtual time, from, to); includes the final
          ("", late/met) verdict with [from = ""] *)
}

type check = { name : string; expected : string; actual : string; ok : bool }

type report = {
  events : (int * Obs.Json.t) list;  (** (line number, parsed event) *)
  jobs : job_audit list;  (** completed jobs, sorted by id *)
  invokes : int;
  cache_hits : int;
  stop_reasons : (string * int) list;  (** stop reason → solve count *)
  latencies_s : float array;  (** invoke elapsed, journal order *)
  n_late : int;  (** recomputed Σ N_j *)
  total_overhead_s : float;  (** recomputed Σ invoke elapsed *)
  classify_s : float;
      (** Σ invoke [wall.classify_s]: the manager classifying its tasks by
          the clock and building the instance (0 for journals without it) *)
  seed_s : float;
      (** Σ invoke [wall.seed_s]: the solver's bound and starting
          incumbent (0 for journals without the phase timers) *)
  bound_s : float;
      (** Σ invoke [wall.bound_s], the part of [seed_s] preparing the pass
          (pending tasks, frozen profiles, dooms, classic bound) *)
  warm_s : float;
      (** Σ invoke [wall.warm_s], the part of [seed_s] completing the
          carried plan *)
  list_s : float;
      (** Σ invoke [wall.list_s], the part of [seed_s] in list schedules *)
  sync_s : float;
      (** Σ invoke [wall.sync_s]: the session store's sync (0 for journals
          without it) *)
  search_s : float;
      (** Σ invoke [wall.search_s]: the exact search or LNS *)
  match_s : float;
      (** Σ invoke [wall.match_s]: matchmaking and installing the plan *)
  crashes : int;  (** counted "resource-crash" events (v2 journals) *)
  rejoins : int;
  task_failures : int;
  stragglers : int;
  lost_work_ms : int;
      (** recomputed Σ crash [lost_ms] + attempt-failure [wasted_ms],
          cross-checked against the run-end total *)
  checks : check list;
}

val of_string : string -> (report, string) result
(** Parse journal text (one JSON event per line).  [Error] on malformed
    JSON, an unsupported journal version, or events missing required
    fields — always with the offending line number. *)

val of_file : string -> (report, string) result

val checks_ok : report -> bool
(** All cross-checks passed. *)

val latency_quantile : report -> float -> float
(** Exact empirical quantile (nearest rank, ceil(q·n) — the convention
    {!Obs.Metrics.quantile} approximates) of per-invocation decision
    latency in seconds; [nan] when no invocations were journaled. *)

val render : report -> string
(** Summary, stop-reason table, per-job outcomes, lateness attribution for
    late jobs, and the cross-check table. *)

val render_timeline : report -> int -> string
(** Every journal event touching one job, in order, with raw payloads. *)
