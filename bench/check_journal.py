#!/usr/bin/env python3
"""Validate a decision-journal JSONL file (written with --journal).

Usage: bench/check_journal.py JOURNAL.jsonl

Checks the envelope contract every consumer (mrcp_audit, the determinism
tests) relies on:

  - every line is a JSON object with v in {1, 2, 3} (v2 added the chaos
    fault events and the run-end fault totals, v3 dropped the invoke
    line's solve.restarts and session.reused_nogoods);
  - seq is contiguous from 0 (the file is complete and ordered);
  - t (virtual ms) is a non-negative integer, non-decreasing within a
    run (it resets after each run-end: one journal may hold several
    replications);
  - ev is a known event kind carrying its required fields;
  - the "wall" key, when present, is the LAST key of the object -- the
    determinism contract canonicalizes lines by stripping the trailing
    wall suffix textually, so anything after it would survive the strip
    and break same-seed fingerprint equality;
  - an invoke line's wall timers (elapsed_s, and when present the
    manager's phases classify_s and match_s and the solver's seed_s with
    its parts bound_s, warm_s and list_s, sync_s and search_s) are
    non-negative numbers.

Exit 0 when the journal is well-formed, 1 otherwise (one line per
violation on stderr).
"""

import json
import sys

REQUIRED = {
    "arrival": {"job", "est", "deadline", "tasks"},
    "submit": {"job", "action", "reason", "est", "deadline"},
    "invoke": {"invocation", "arrived", "active_jobs", "pending_tasks",
               "late", "late_delta", "cache_hit", "plan_version", "solve",
               "plan"},
    "sla": {"job", "to"},
    "job-done": {"job", "est", "deadline", "completion", "late",
                 "first_start", "queue_wait_ms", "exec_ms", "lateness_ms"},
    "snapshot": {"completed", "solves"},
    "run-end": {"manager", "jobs_total", "n_late", "solves", "makespan_ms"},
    "resource-crash": {"resource", "lost", "lost_ms", "rejoin"},
    "resource-rejoin": {"resource"},
    "task-attempt-failed": {"task", "job", "attempt", "wasted_ms"},
    "straggler": {"task", "job", "attempt", "factor_1000", "exec_ms",
                  "inflated_ms"},
}

# fault totals every run-end line must carry from v2 on
RUN_END_V2 = {"crashes", "rejoins", "task_failures", "stragglers",
              "lost_work_ms"}

SOLVE_REQUIRED = {"stop_reason", "seed_late", "lower_bound", "proved",
                  "warm_seeded", "nodes", "failures", "lns_moves"}

# the invoke line's wall-clock timers: the pass, the manager's phases and
# the solver's phases
WALL_TIMERS = {"elapsed_s", "classify_s", "seed_s", "bound_s", "warm_s",
               "list_s", "sync_s", "search_s", "match_s"}

STOP_REASONS = {"proved", "hit_carried_bound", "cache_hit", "fail_limit",
                "node_limit", "wall_limit"}


def main(path):
    errors = 0

    def err(lineno, msg):
        nonlocal errors
        errors += 1
        print(f"{path}:{lineno}: {msg}", file=sys.stderr)

    events = runs = 0
    expect_seq = 0
    last_t = None
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                # parse twice: once keeping top-level key order (for the
                # wall-is-last check), once normally for nested values
                pairs = json.loads(raw, object_pairs_hook=list)
                ev = json.loads(raw)
            except json.JSONDecodeError as e:
                err(lineno, f"not JSON: {e}")
                continue
            keys = [k for k, _ in pairs]
            events += 1

            if ev.get("v") not in (1, 2, 3):
                err(lineno, f"unsupported version {ev.get('v')!r}")
            if ev.get("seq") != expect_seq:
                err(lineno, f"seq {ev.get('seq')!r}, expected {expect_seq}")
                expect_seq = ev.get("seq", expect_seq) if isinstance(
                    ev.get("seq"), int) else expect_seq
            expect_seq += 1

            t = ev.get("t")
            if not isinstance(t, int) or t < 0:
                err(lineno, f"t must be a non-negative int, got {t!r}")
            elif last_t is not None and t < last_t:
                err(lineno, f"t went backwards: {last_t} -> {t}")
            else:
                last_t = t

            if "wall" in keys and keys[-1] != "wall":
                err(lineno, "wall is not the last key (breaks the "
                            "canonicalization contract)")

            kind = ev.get("ev")
            if kind not in REQUIRED:
                err(lineno, f"unknown event kind {kind!r}")
                continue
            missing = REQUIRED[kind] - set(keys)
            if missing:
                err(lineno, f"{kind}: missing fields {sorted(missing)}")

            if kind == "invoke":
                solve = ev.get("solve")
                if isinstance(solve, dict):
                    missing = SOLVE_REQUIRED - solve.keys()
                    if missing:
                        err(lineno, f"solve: missing fields {sorted(missing)}")
                    if solve.get("stop_reason") not in STOP_REASONS:
                        err(lineno,
                            f"unknown stop_reason {solve.get('stop_reason')!r}")
                wall = ev.get("wall")
                if not isinstance(wall, dict) or "elapsed_s" not in wall:
                    err(lineno, "invoke: missing wall.elapsed_s")
                else:
                    for key in WALL_TIMERS & wall.keys():
                        v = wall[key]
                        if (isinstance(v, bool)
                                or not isinstance(v, (int, float)) or v < 0):
                            err(lineno, f"invoke: wall.{key} must be a "
                                        f"non-negative number, got {v!r}")
            elif kind == "run-end":
                runs += 1
                last_t = None  # virtual time starts over with the next run
                v = ev.get("v")
                if isinstance(v, int) and v >= 2:
                    missing = RUN_END_V2 - set(keys)
                    if missing:
                        err(lineno,
                            f"run-end: missing v2 fault totals "
                            f"{sorted(missing)}")
            elif kind == "straggler":
                if (isinstance(ev.get("inflated_ms"), int)
                        and isinstance(ev.get("exec_ms"), int)
                        and ev["inflated_ms"] <= ev["exec_ms"]):
                    err(lineno, "straggler: inflated_ms <= exec_ms")
            elif kind == "resource-crash":
                if not isinstance(ev.get("lost"), list):
                    err(lineno, "resource-crash: lost must be a list")

    if events == 0:
        err(0, "empty journal")
    if events and runs == 0:
        err(0, "no run-end event (truncated journal)")
    if errors == 0:
        print(f"{path}: {events} events, {runs} run(s), journal well-formed")
    return 1 if errors else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
