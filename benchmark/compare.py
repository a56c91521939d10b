#!/usr/bin/env python3
"""Compare two benchmark result files, end-to-end metric by metric.

    python3 benchmark/compare.py A.json B.json

A is the reference (the parent commit), B the candidate. Both are results
files written by run.py (build-benchmark/results/*.json, or the committed
baseline under benchmark/baseline/); --runs N gives each metric N values.
Bounds and directions come from BENCHMARK.json. For every workload and
end-to-end metric, B reads
  improved    better than A's median by more than the bound,
  unchanged   within the bound,
  worse       worse than A's median by more than the bound,
  unresolved  A's or B's run-to-run spread (quartile distance over median)
              is wider than the bound, unless every run of B beats every
              run of A, which reads improved.
error_rate has no bound: any increase is worse. setup_s is never worse by
less than 0.05 s, its timer's noise floor. One row per workload; the exit
status is 1 if any pair is worse or missing from either file.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOORS = {"setup_s": 0.05}


def runs_of(results, workload, metric):
    entry = results["workloads"].get(workload, {})
    return [r["metrics"][metric] for r in entry.get("runs", [])
            if not r["trace"] and metric in r["metrics"]]


def spread(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q3 - q1) / med if med else 0.0


def verdict(a, b, bound, lower_is_better, floor):
    """(verdict, signed change of B's median against A's, in percent)."""
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / ma * 100 if ma else 0.0
    worse_by = (mb - ma) if lower_is_better else (ma - mb)
    if bound is None:  # error_rate: any increase
        return ("worse" if mb > ma else "unchanged"), change
    if max(spread(a), spread(b)) > bound:
        all_better = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
        return ("improved" if all_better else "unresolved"), change
    limit = max(bound * abs(ma), floor)
    if worse_by > limit:
        return "worse", change
    if -worse_by > limit:
        return "improved", change
    return "unchanged", change


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(sys.argv[1]) as f:
        a = json.load(f)
    with open(sys.argv[2]) as f:
        b = json.load(f)

    metrics = [(m["name"], m["bound"], m["better"] == "lower")
               for m in spec["end_to_end"]]
    metrics.append(("error_rate", None, True))
    workloads = [w["name"] for w in spec["workloads"]]

    width = 24
    print(f"{'workload':16}" + "".join(f"{m:>{width}}" for m, _, _ in metrics))
    worse = 0
    for w in workloads:
        cells = []
        for m, bound, lower in metrics:
            ra, rb = runs_of(a, w, m), runs_of(b, w, m)
            if not ra or not rb:
                worse += 1
                cells.append("missing")
                continue
            v, change = verdict(ra, rb, bound, lower, FLOORS.get(m, 0.0))
            worse += v == "worse"
            cells.append(f"{v} {change:+.1f}%")
        print(f"{w:16}" + "".join(f"{c:>{width}}" for c in cells))
    print(f"{worse} worse or missing" if worse else "no metric worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
