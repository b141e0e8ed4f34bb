#!/usr/bin/env python3
"""bench-regress: gate fresh BENCH_*.json against the committed baselines.

Checks (all fatal, exit 1, every failure reported before exiting):

1. fig7 capsule-variant 4-thread throughput must not regress more than
   REGRESS_TOL (20%) against the committed baseline's same cell.
2. fig7 General and Normalized-Opt must actually *scale*: their 4-thread
   mops must exceed the seed's flat ~3.7 Mops ceiling (the pre-adaptive
   plateau, DESIGN.md §11), and be >= SCALE_MIN (1.5) x their own
   1-thread mops. The scaling ratio is within-run, so it is robust to the
   absolute speed of the machine.
3. instr_overhead disarmed rows must stay at-or-above the committed
   baseline: the crash-point plumbing must remain free when disarmed.
   "At-or-above" is applied with a noise band (DISARM_TOL, 30%): these are
   wall-clock rates from shared single-core CI containers whose run-to-run
   spread is ~25-30%, and a real disarmed-path regression (accidentally
   armed bookkeeping) shows up as 2x+, far outside the band.
4. dfck (--dfck FRESH [BASELINE]): coverage counts are deterministic, so
   they are gated *exactly*. Every row label present in both documents whose
   governing params agree must match on every count field (DFCK_COUNT_FIELDS)
   — `pair` / `map-resize` rows always, `multi` rows when `multi_ops` and
   `seed` agree, interleaved `/tN` rows when `conc_seeds` and `conc_threads`
   agree — compared by label, not position. A fresh row whose variant the
   baseline does not know fails (a renamed or misspelt label must not pass
   by matching nothing), as does a run with no comparable row at all.
   BASELINE defaults to BENCH_dfck.json in the --baseline directory.

Usage:
  regress.py [--baseline benchmarks] \
             [--fig7 fresh/BENCH_fig7.json] \
             [--instr fresh/BENCH_instr_overhead.json] \
             [--dfck fresh/BENCH_dfck.json [baseline/BENCH_dfck.json]]
"""

import argparse
import json
import os
import sys

CAPSULE_VARIANTS = ["General", "General-Opt", "Normalized", "Normalized-Opt"]
SCALING_VARIANTS = ["General", "Normalized-Opt"]

REGRESS_TOL = 0.20
SCALE_MIN = 1.5
SEED_CEILING = 3.7
DISARM_TOL = 0.30
DFCK_COUNT_FIELDS = [
    "crash_points", "replays", "crashes_injected", "covictim_crashes",
    "recoveries", "entry_retries", "recovery_crashes", "fast_ops", "demotions",
    "hb_flags", "oracle_failures", "seeds",
    "distinct_interleavings",
]


def rows(doc, variant=None, threads=None):
    out = []
    for r in doc["results"]:
        if variant is not None and r["variant"] != variant:
            continue
        if threads is not None and r["threads"] != threads:
            continue
        out.append(r)
    return out


def mops(doc, variant, threads):
    matched = rows(doc, variant, threads)
    if not matched:
        return None
    return matched[0]["mops"]


def check_fig7(baseline, fresh, failures):
    # fig7 sweeps the paper's figure-7 variant set (General and
    # Normalized-Opt represent the capsule family there); gate whichever
    # capsule variants the committed baseline actually carries.
    present = [v for v in CAPSULE_VARIANTS if rows(baseline, v, 4)]
    if not present:
        failures.append("fig7 baseline has no capsule-variant rows at 4 threads")
    for variant in present:
        base = mops(baseline, variant, 4)
        new = mops(fresh, variant, 4)
        if new is None:
            failures.append(f"fig7 {variant}@4t: fresh row missing")
            continue
        floor = base * (1.0 - REGRESS_TOL)
        if new < floor:
            failures.append(
                f"fig7 {variant}@4t regressed: {new:.3f} < {floor:.3f} "
                f"(baseline {base:.3f}, tol {REGRESS_TOL:.0%})"
            )
        else:
            print(f"ok fig7 {variant}@4t: {new:.3f} vs baseline {base:.3f}")
    for variant in SCALING_VARIANTS:
        one = mops(fresh, variant, 1)
        four = mops(fresh, variant, 4)
        if one is None or four is None:
            failures.append(f"fig7 {variant}: 1t/4t row missing")
            continue
        if four <= SEED_CEILING:
            failures.append(
                f"fig7 {variant}@4t does not clear the seed ceiling: "
                f"{four:.3f} <= {SEED_CEILING} Mops"
            )
        if four < SCALE_MIN * one:
            failures.append(
                f"fig7 {variant} does not scale: 4t {four:.3f} < "
                f"{SCALE_MIN}x 1t {one:.3f}"
            )
        else:
            print(f"ok fig7 {variant} scaling: 1t {one:.3f} -> 4t {four:.3f}")


def check_instr(baseline, fresh, failures):
    disarmed = [r for r in baseline["results"] if r["variant"].endswith("/disarmed")]
    if not disarmed:
        failures.append("instr_overhead baseline has no disarmed rows")
        return
    for r in disarmed:
        variant = r["variant"]
        new = mops(fresh, variant, r["threads"])
        if new is None:
            failures.append(f"instr_overhead {variant}: fresh row missing")
            continue
        floor = r["mops"] * (1.0 - DISARM_TOL)
        if new < floor:
            failures.append(
                f"instr_overhead {variant} regressed: {new:.3f} < {floor:.3f} "
                f"(baseline {r['mops']:.3f})"
            )
        else:
            print(f"ok instr_overhead {variant}: {new:.3f} vs baseline {r['mops']:.3f}")


def dfck_governing_params(label):
    """The params a dfck row's counts depend on (see check 4)."""
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
                    help="directory with committed BENCH_*.json (default: this script's)")
    ap.add_argument("--fig7", help="fresh BENCH_fig7.json")
    ap.add_argument("--instr", help="fresh BENCH_instr_overhead.json (optional)")
    ap.add_argument("--dfck", nargs="+", metavar=("FRESH", "BASELINE"),
                    help="fresh BENCH_dfck.json, optionally the baseline file to compare with")
    args = ap.parse_args()
    if not (args.fig7 or args.dfck):
        ap.error("nothing to gate: pass --fig7 and/or --dfck")
    if args.dfck and len(args.dfck) > 2:
        ap.error("--dfck takes FRESH and at most one BASELINE")

    failures = []
    if args.fig7:
        with open(os.path.join(args.baseline, "BENCH_fig7.json")) as f:
            fig7_base = json.load(f)
        with open(args.fig7) as f:
            fig7_fresh = json.load(f)
        check_fig7(fig7_base, fig7_fresh, failures)

    if args.instr:
        with open(os.path.join(args.baseline, "BENCH_instr_overhead.json")) as f:
            instr_base = json.load(f)
        with open(args.instr) as f:
            instr_fresh = json.load(f)
        check_instr(instr_base, instr_fresh, failures)

    if args.dfck:
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
