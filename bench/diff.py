#!/usr/bin/env python3
"""Diff a freshly run bench JSON against its committed baseline.

Usage: bench/diff.py BASELINE.json FRESH.json

Understands the two snapshot formats bench/main.exe emits
(prop-compare, session-compare) and prints one line per
tracked metric.  A regression of more than REGRESSION_PCT — lower
throughput (nodes/s), or higher per-invocation overhead O — is surfaced
as a GitHub Actions ::warning:: annotation so it shows up on the PR
without failing the (non-blocking) CI step.

Exit code is always 0: the numbers are tracked across PRs, not gated on.
CI-hardware noise makes a hard gate flap; a human reads the annotation.
"""

import json
import sys

REGRESSION_PCT = 20.0


def pct(base, fresh):
    if base == 0:
        return 0.0
    return 100.0 * (fresh - base) / base


def warn(msg):
    print(f"::warning title=bench regression::{msg}")


def report(label, base, fresh, *, higher_is_better, unit=""):
    """One tracked metric: print the move, warn past the threshold."""
    delta = pct(base, fresh)
    arrow = "better" if (delta > 0) == higher_is_better or delta == 0 else "worse"
    print(f"  {label}: {base:g}{unit} -> {fresh:g}{unit} ({delta:+.1f}%, {arrow})")
    regressed = -delta if higher_is_better else delta
    if regressed > REGRESSION_PCT:
        warn(f"{label}: {base:g}{unit} -> {fresh:g}{unit} ({delta:+.1f}%)")


def diff_prop(base, fresh):
    fresh_by = {
        (c["case"], k["kernel"]): k
        for c in fresh.get("cases", [])
        for k in c.get("kernels", [])
    }
    for c in base.get("cases", []):
        for k in c.get("kernels", []):
            key = (c["case"], k["kernel"])
            f = fresh_by.get(key)
            if f is None:
                print(f"  {key}: dropped from fresh run")
                continue
            report(
                f"prop {key[0]}/{key[1]} nodes/s",
                k["nodes_per_sec"],
                f["nodes_per_sec"],
                higher_is_better=True,
            )


def diff_session(base, fresh):
    for mode in ("cold", "session"):
        report(
            f"session-compare {mode} O per invocation",
            base[mode]["o_per_invocation_s"],
            fresh[mode]["o_per_invocation_s"],
            higher_is_better=False,
            unit="s",
        )
        # p99 decision latency: present only in baselines regenerated after
        # the journal landed, so guard the key
        if "o_p99_s" in base[mode] and "o_p99_s" in fresh[mode]:
            report(
                f"session-compare {mode} decision latency p99",
                base[mode]["o_p99_s"],
                fresh[mode]["o_p99_s"],
                higher_is_better=False,
                unit="s",
            )
        if fresh[mode]["n_late"] != base[mode]["n_late"]:
            warn(
                f"session-compare {mode} lateness moved: "
                f"{base[mode]['n_late']} -> {fresh[mode]['n_late']} late jobs"
            )
    report(
        "session-compare O reduction",
        base["o_reduction_pct"],
        fresh["o_reduction_pct"],
        higher_is_better=True,
        unit="%",
    )


DIFFERS = {
    "prop-compare": diff_prop,
    "session-compare": diff_session,
}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as fp:
        base = json.load(fp)
    with open(sys.argv[2]) as fp:
        fresh = json.load(fp)
    kind = base.get("bench")
    if kind != fresh.get("bench"):
        warn(f"bench kinds differ: baseline {kind!r} vs fresh {fresh.get('bench')!r}")
        return 0
    differ = DIFFERS.get(kind)
    if differ is None:
        print(f"  unknown bench kind {kind!r}: nothing to diff")
        return 0
    print(f"{kind}: {sys.argv[1]} vs {sys.argv[2]}")
    differ(base, fresh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
