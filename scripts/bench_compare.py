#!/usr/bin/env python3
"""Baseline-comparison gate for the BENCH_*.json perf records.

Usage: bench_compare.py BASELINE FRESH [--wall-tolerance FACTOR]

Compares a freshly measured bench JSON (CI smoke run) against the committed
baseline (full run from the last PR that touched perf). Rows are matched on
(label, clique_n); rows present in only one file are reported but do not
fail the gate (smoke runs measure a subset of the full sweep, and new
benchmarks have no baseline yet).

Gates:
  * rounds must be EXACTLY equal. Round counts come from the simulator's
    deterministic schedule accounting, so any drift means an algorithm or
    router change that must be re-baselined deliberately (by committing the
    regenerated BENCH json in the same PR).
  * wall_ns_per_op may be at most FACTOR times the baseline (default 5.0 —
    generous because CI machines are slower and noisier than the machine
    that wrote the baseline; the gate exists to catch catastrophic
    wall-clock regressions, not percent-level ones). Rows whose baseline
    wall is below --wall-floor-ms (default 10 ms) are exempt: they are
    timed as a single shot, where one scheduler hiccup swamps the signal.

Before gating it prints the "host" record of each file (core count,
parallel_for workers, compiler, build flavour), so a wall ratio can be read
against the machines that produced it. Baselines written before the host
record existed have none; they still compare.

Exit status: 0 when every matched row passes, 1 otherwise.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {(r["label"], r["clique_n"]): r for r in doc.get("rows", [])}
    return rows, doc.get("host")


def describe_host(host):
    if not host:
        return "(no host record)"
    return ", ".join(f"{k}={v}" for k, v in host.items())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--wall-tolerance", type=float, default=5.0,
                    help="max allowed fresh/baseline wall-clock ratio")
    ap.add_argument("--wall-floor-ms", type=float, default=10.0,
                    help="skip the wall gate when the baseline is below this "
                         "(single-shot sub-10ms timings are scheduler noise)")
    args = ap.parse_args()

    base, base_host = load(args.baseline)
    fresh, fresh_host = load(args.fresh)
    print(f"baseline host: {describe_host(base_host)}")
    print(f"fresh host:    {describe_host(fresh_host)}")

    matched = sorted(set(base) & set(fresh))
    only_base = sorted(set(base) - set(fresh))
    only_fresh = sorted(set(fresh) - set(base))
    failures = []

    for key in matched:
        b, f = base[key], fresh[key]
        label = f"{key[0]} (clique_n={key[1]})"
        row_ok = True
        if b["rounds"] != f["rounds"]:
            row_ok = False
            failures.append(
                f"ROUNDS DRIFT {label}: baseline {b['rounds']} != fresh "
                f"{f['rounds']} — round accounting is deterministic; "
                f"re-baseline deliberately if the algorithm changed")
        ratio = None
        if b["wall_ns_per_op"] > args.wall_floor_ms * 1e6:
            ratio = f["wall_ns_per_op"] / b["wall_ns_per_op"]
            if ratio > args.wall_tolerance:
                row_ok = False
                failures.append(
                    f"WALL REGRESSION {label}: {ratio:.2f}x baseline "
                    f"({b['wall_ns_per_op'] / 1e6:.1f} ms -> "
                    f"{f['wall_ns_per_op'] / 1e6:.1f} ms, tolerance "
                    f"{args.wall_tolerance:.1f}x)")
        if row_ok:
            wall = (f"wall {ratio:.2f}x baseline" if ratio is not None
                    else "wall not gated (baseline below floor)")
            print(f"ok {label}: rounds {f['rounds']}, {wall}")

    for key in only_fresh:
        print(f"note: no baseline for {key[0]} (clique_n={key[1]}) — "
              f"new benchmark, not gated")
    for key in only_base:
        print(f"note: baseline row {key[0]} (clique_n={key[1]}) not "
              f"measured in this run")

    if not matched:
        failures.append("no rows matched between baseline and fresh run")

    if failures:
        print("\n".join("FAIL " + f for f in failures), file=sys.stderr)
        return 1
    print(f"bench gate passed: {len(matched)} rows compared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
