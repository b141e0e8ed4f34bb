#!/usr/bin/env python3
"""Gate a fresh BENCH_dfck.json against the committed baseline.

The dfck coverage counts are deterministic, so they are gated *exactly*
(fatal, exit 1, every failure reported before exiting). Every row label
present in both documents whose governing params agree must match on every
count field (DFCK_COUNT_FIELDS) — `pair` / `map-resize` rows always, `multi`
rows when `multi_ops` and `seed` agree, interleaved `/tN` rows when
`conc_seeds` and `conc_threads` agree — compared by label, not position, and
numerically (a count recorded as 3.0 equals one recorded as 3). A fresh row
whose variant the baseline does not know fails (a renamed or misspelt label
must not pass by matching nothing), as does a run with no comparable row at
all. BASELINE defaults to BENCH_dfck.json in the --baseline directory.

Usage:
  regress.py [--baseline benchmarks] --dfck fresh/BENCH_dfck.json [baseline/BENCH_dfck.json]
"""

import argparse
import json
import os
import sys

DFCK_COUNT_FIELDS = [
    "crash_points", "replays", "crashes_injected", "covictim_crashes",
    "recoveries", "entry_retries", "recovery_crashes", "fast_ops", "demotions",
    "hb_flags", "oracle_failures", "seeds",
    "distinct_interleavings",
]


def dfck_governing_params(label):
    """The params a dfck row's counts depend on (see the module docstring)."""
    segments = label.split("/")
    if any(seg[:1] == "t" and seg[1:].isdigit() for seg in segments[2:]):
        return ["conc_seeds", "conc_threads"]
    if len(segments) > 1 and segments[1].startswith("multi"):
        return ["multi_ops", "seed"]
    return []


def check_dfck(baseline, fresh, failures):
    base_rows = {r["variant"]: r for r in baseline["results"]}
    known_variants = {label.split("/")[0] for label in base_rows}
    base_params = baseline.get("params", {})
    fresh_params = fresh.get("params", {})
    compared = skipped = 0
    for r in fresh["results"]:
        label = r["variant"]
        if label.split("/")[0] not in known_variants:
            failures.append(f"dfck {label}: variant unknown to the baseline")
            continue
        base = base_rows.get(label)
        governing = dfck_governing_params(label)
        if base is None or any(base_params.get(p) != fresh_params.get(p) for p in governing):
            skipped += 1
            continue
        compared += 1
        for field in DFCK_COUNT_FIELDS:
            if base.get(field) != r.get(field):
                failures.append(
                    f"dfck {label}: {field} = {r.get(field)} != baseline {base.get(field)}"
                )
    if compared == 0:
        failures.append("dfck: no fresh row is comparable with the baseline")
    print(f"dfck: {compared} rows compared exactly, {skipped} not comparable (new label or differing params)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", default=os.path.dirname(os.path.abspath(__file__)),
                    help="directory with the committed BENCH_dfck.json (default: this script's)")
    ap.add_argument("--dfck", nargs="+", required=True, metavar=("FRESH", "BASELINE"),
                    help="fresh BENCH_dfck.json, optionally the baseline file to compare with")
    args = ap.parse_args()
    if len(args.dfck) > 2:
        ap.error("--dfck takes FRESH and at most one BASELINE")

    failures = []
    base_path = args.dfck[1] if len(args.dfck) == 2 else os.path.join(args.baseline, "BENCH_dfck.json")
    with open(base_path) as f:
        dfck_base = json.load(f)
    with open(args.dfck[0]) as f:
        dfck_fresh = json.load(f)
    check_dfck(dfck_base, dfck_fresh, failures)

    if failures:
        for msg in failures:
            print(f"FAIL {msg}", file=sys.stderr)
        sys.exit(1)
    print("bench-regress: all gates passed")


if __name__ == "__main__":
    main()
