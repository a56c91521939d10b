#!/usr/bin/env python3
"""Build, self-test and run the repository benchmark; print every metric.

End-to-end pass over all four workloads (about two minutes on a 4-core host):
    python3 benchmark/run.py --seed 1
Add the per-layer pass (TimedTransport spans, Chrome trace files):
    python3 benchmark/run.py --seed 1 --trace
Repeat each workload N times into one results file, for compare.py:
    python3 benchmark/run.py --seed 1 --runs 5
One workload and one pass, as BENCHMARK.json's command is called:
    python3 benchmark/run.py --workload apsp-dense --seed 1 --seconds 20 --trace 0

Every metric prints as `<workload>.<metric> <value> <unit>`, and the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. Results with host metadata go to build-benchmark/results/, and
traced runs write Chrome trace-event files to build-benchmark/traces/.
"""

import argparse
import json
import os
import platform
import random
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD, "cca_bench")

# name -> (CCA_THREADS of each process, ranks). The socket workload spends
# the same 4-core budget as four single-threaded ranks.
WORKLOADS = {
    "apsp-dense": (4, 1),
    "triangles-cold": (4, 1),
    "kcycle-small": (4, 1),
    "apsp-socket": (1, 4),
}
SETUPS = 5  # set-ups per measurement; setup_s is their median
LAUNCH_SLACK_S = 60  # a launch may take --seconds plus this long
DEADLINE_S = 170  # one workload's set-ups and run, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and self-test
# ---------------------------------------------------------------------------


def build():
    """Configure and build cca_bench; tool output goes to stderr."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "cca_bench",
              "-j", str(os.cpu_count() or 1)]]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def selftest(always):
    """Run `cca_bench --selftest` (once per binary unless `always`)."""
    marker = os.path.join(BUILD, "selftest.ok")
    stamp = str(os.stat(BINARY).st_mtime_ns)
    if not always and os.path.isfile(marker):
        with open(marker) as f:
            if f.read() == stamp:
                return
    env = dict(os.environ, CCA_THREADS="1")
    try:
        proc = subprocess.run([BINARY, "--selftest"], env=env,
                              stdout=sys.stderr, stderr=sys.stderr, timeout=120)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: cca_bench --selftest timed out")
    if proc.returncode:
        sys.exit("run.py: cca_bench --selftest failed")
    with open(marker, "w") as f:
        f.write(stamp)


# ---------------------------------------------------------------------------
# Launching one workload process (or one group of socket ranks)
# ---------------------------------------------------------------------------


def free_port_base(nprocs):
    """A base port whose nprocs consecutive localhost ports bind right now,
    or None. The ranks bind again after this returns, so a collision is
    still possible; launch() retries on a failed bind.
    """
    for _ in range(200):
        base = random.randrange(20000, 60000 - nprocs)
        socks = []
        try:
            for r in range(nprocs):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                socks.append(s)
                s.bind(("127.0.0.1", base + r))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    return None


def trace_path(name, seed, rank, nprocs):
    suffix = f"-rank{rank}" if nprocs > 1 else ""
    return os.path.join(BUILD, "traces", f"{name}-seed{seed}{suffix}.json")


def launch_once(name, seed, seconds, trace, setup_only, deadline, port_base):
    threads, nprocs = WORKLOADS[name]
    env = dict(os.environ, CCA_THREADS=str(threads))
    rundir = os.path.join(BUILD, "run")
    os.makedirs(rundir, exist_ok=True)
    if trace and not setup_only:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    procs, logs = [], []
    spawn_ns = time.time_ns()
    try:
        for r in range(nprocs):
            cmd = [BINARY, "--workload", name, "--seed", str(seed),
                   "--seconds", repr(seconds)]
            if trace:
                cmd.append("--trace")
            if setup_only:
                cmd.append("--setup-only")
            elif trace:
                cmd += ["--trace-file", trace_path(name, seed, r, nprocs)]
            if nprocs > 1:
                cmd += ["--rank", str(r), "--nprocs", str(nprocs),
                        "--port-base", str(port_base)]
            out = open(os.path.join(rundir, f"{name}-rank{r}.out"), "w+")
            err = open(os.path.join(rundir, f"{name}-rank{r}.err"), "w+")
            logs.append((out, err))
            # All ranks share one process group (rank 0's), so a timeout
            # kills every rank with one signal.
            pgid = procs[0].pid if procs else 0
            procs.append(subprocess.Popen(
                cmd, stdout=out, stderr=err, env=env,
                preexec_fn=lambda g=pgid: os.setpgid(0, g)))
        timed_out = False
        while True:
            codes = [p.poll() for p in procs]
            if all(c is not None for c in codes):
                break
            # A dead rank leaves its peers blocked on the mesh forever.
            if any(c not in (None, 0) for c in codes):
                break
            if time.monotonic() > deadline:
                timed_out = True
                break
            time.sleep(0.02)
    finally:
        if procs and any(p.poll() is None for p in procs):
            try:
                os.killpg(procs[0].pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for p in procs:
            p.wait()

    ranks, errors = [], []
    for r, (p, (out, err)) in enumerate(zip(procs, logs)):
        out.seek(0)
        err.seek(0)
        text, errtext = out.read(), err.read()
        out.close()
        err.close()
        if timed_out:
            errors.append(f"rank {r}: killed after the launch timeout")
        elif p.returncode != 0:
            errors.append(f"rank {r}: exit {p.returncode}")
        if errtext.strip():
            errors.append(f"rank {r} stderr:\n{errtext.rstrip()}")
        lines = text.strip().splitlines()
        try:
            ranks.append(json.loads(lines[-1]) if p.returncode == 0 else None)
        except (IndexError, ValueError):
            errors.append(f"rank {r}: no result line")
            ranks.append(None)
    return {"spawn_ns": spawn_ns, "ranks": ranks, "errors": errors,
            "ok": not timed_out and None not in ranks}


def launch(name, seed, seconds, trace, setup_only, deadline):
    nprocs = WORKLOADS[name][1]
    for attempt in range(3):
        port_base = free_port_base(nprocs) if nprocs > 1 else 0
        if port_base is None:
            return {"spawn_ns": 0, "ranks": [None], "ok": False,
                    "errors": ["no free localhost port range"]}
        limit = min(deadline, time.monotonic() + seconds + LAUNCH_SLACK_S)
        res = launch_once(name, seed, seconds, trace, setup_only, limit,
                          port_base)
        bind_race = any("bind(" in e for e in res["errors"])
        if res["ok"] or not bind_race or attempt == 2:
            return res
        log(f"run.py: {name}: port range taken, retrying")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# Field positions in cca_bench's JSON rows.
IN_ROUNDS, IN_BOUND, IN_STEPS, IN_WORDS, IN_SEND, IN_RECV, IN_HITS, \
    IN_MISSES, IN_SPARSE, IN_DENSE, IN_TRIALS = range(11)
S_INPUT, S_TRACED, S_NS, S_SCHED, S_DELIVER, S_DELIVER_CALLS, \
    S_ALLGATHER, S_ALLGATHER_CALLS, S_OK = range(9)


def p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def count_failures(launches):
    """(attempted, failed) solves over every launch; each launch's four
    warm-up solves count. A solve fails when any rank's check failed, and a
    launch that did not finish counts as one failed solve."""
    attempted = failed = 0
    for res in launches:
        if not res["ok"] or any(r is None for r in res["ranks"]):
            attempted += 1
            failed += 1
            continue
        rows = [r["solves"] for r in res["ranks"]]
        bad = [any(not rk[k][S_OK] for rk in rows) for k in range(len(rows[0]))]
        warm_bad = max(r["failed"] - sum(not s[S_OK] for s in r["solves"])
                       for r in res["ranks"])
        attempted += len(res["ranks"][0]["inputs"]) + len(bad)
        failed += warm_bad + sum(bad)
    return attempted, failed


def metrics_of(launches, trace):
    """End-to-end and per-layer metrics of one measurement: the last launch
    is the timed run, the others are set-up-only launches."""
    run = launches[-1]
    r0 = run["ranks"][0]
    inputs, solves = r0["inputs"], r0["solves"]
    plain = [s[S_NS] / 1e6 for s in solves if not s[S_TRACED]]
    setup_runs = [res["ranks"][0] for res in launches]
    setup_s = [(r["ready_epoch_ns"] - res["spawn_ns"]) / 1e9
               for r, res in zip(setup_runs, launches)]
    e2e = {
        "solve_ms_p50": (statistics.median(plain), "ms"),
        "solve_ms_p90": (p90(plain), "ms"),
        "solves_per_s": (len(plain) / (sum(plain) / 1e3), "1/s"),
        "rounds_per_solve": (statistics.mean(i[IN_ROUNDS] for i in inputs),
                             "rounds"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in run["ranks"]) / 1024,
                        "MB"),
    }
    if not trace:
        return e2e, {}

    traced = [s for s in solves if s[S_TRACED]]
    med = statistics.median

    def over(f):
        return med(f(s, inputs[s[S_INPUT]]) for s in traced)

    def core_ns(s):
        return s[S_NS] - s[S_DELIVER] - s[S_ALLGATHER] - s[S_SCHED]

    def setup_ms(key):
        return med(r["setup_ms"][key] for r in setup_runs)

    # Per solve, the slowest rank's deliver time (ranks run the same solves).
    max_rank = [max(r["solves"][k][S_DELIVER] for r in run["ranks"])
                for k, s in enumerate(solves) if s[S_TRACED]]
    connect = med((r["connected_epoch_ns"] - res["spawn_ns"]) / 1e6
                  for r, res in zip(setup_runs, launches))
    layer = {
        "routing.sched_ms": (over(lambda s, i: s[S_SCHED] / 1e6), "ms"),
        "routing.sched_share": (over(lambda s, i: s[S_SCHED] / s[S_NS]),
                                "share"),
        "routing.cache_hits": (over(lambda s, i: i[IN_HITS]), "count"),
        "routing.cache_misses": (over(lambda s, i: i[IN_MISSES]), "count"),
        "transport.ms": (over(lambda s, i: (s[S_DELIVER] + s[S_ALLGATHER])
                              / 1e6), "ms"),
        "transport.deliver_ms": (over(lambda s, i: s[S_DELIVER] / 1e6), "ms"),
        "transport.deliver_us_per_superstep": (
            over(lambda s, i: s[S_DELIVER] / s[S_DELIVER_CALLS] / 1e3), "us"),
        "transport.deliver_ms_max_rank": (med(max_rank) / 1e6, "ms"),
        "transport.allgather_calls": (over(lambda s, i: s[S_ALLGATHER_CALLS]),
                                      "count"),
        "transport.bytes_per_superstep": (
            over(lambda s, i: 8 * i[IN_WORDS] / i[IN_STEPS]), "B"),
        "core.self_ms": (over(lambda s, i: core_ns(s) / 1e6), "ms"),
        "core.self_us_per_superstep": (
            over(lambda s, i: core_ns(s) / i[IN_STEPS] / 1e3), "us"),
        "core.dispatch_sparse": (over(lambda s, i: i[IN_SPARSE]), "count"),
        "core.dispatch_dense": (over(lambda s, i: i[IN_DENSE]), "count"),
        "network.supersteps": (over(lambda s, i: i[IN_STEPS]), "count"),
        "network.total_words": (over(lambda s, i: i[IN_WORDS]), "words"),
        "network.bound_rounds": (over(lambda s, i: i[IN_BOUND]), "rounds"),
        "network.router_overhead": (
            over(lambda s, i: i[IN_ROUNDS] / i[IN_BOUND]), "ratio"),
        "network.max_node_send": (over(lambda s, i: i[IN_SEND]), "words"),
        "network.max_node_recv": (over(lambda s, i: i[IN_RECV]), "words"),
        "setup.connect_ms": (connect, "ms"),
        "setup.inputs_ms": (setup_ms("inputs"), "ms"),
        "setup.reference_ms": (setup_ms("reference"), "ms"),
        "setup.warmup_ms": (setup_ms("warmup"), "ms"),
        "trace.overhead_pct": (
            (over(lambda s, i: s[S_NS]) / 1e6 / med(plain) - 1) * 100, "%"),
    }
    return e2e, layer


def measure(name, seed, seconds, trace):
    """Set up SETUPS - 1 times, then set up and run once. The metrics are
    None unless every solve of every launch was correct."""
    deadline = time.monotonic() + DEADLINE_S
    launches = []
    for k in range(SETUPS):
        res = launch(name, seed, seconds, trace, k < SETUPS - 1, deadline)
        launches.append(res)
        for e in res["errors"]:
            log(f"run.py: {name}: {e}")
        if not res["ok"]:
            break
    attempted, failed = count_failures(launches)
    out = {"attempted": attempted, "failed": failed, "e2e": None,
           "layer": None}
    if failed == 0:
        out["e2e"], out["layer"] = metrics_of(launches, trace)
        r0 = launches[-1]["ranks"][0]
        out["workers"] = r0["workers"]
        out["build"] = {"type": r0["build_type"], "compiler": r0["compiler"]}
        out["solves"] = len(r0["solves"])
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def fmt(v):
    return str(int(v)) if float(v).is_integer() else f"{v:.6g}"


def host_metadata(seed, seconds):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        head = "unknown"
    nproc = os.cpu_count() or 1
    if nproc < 4:
        log(f"run.py: WARNING: nproc = {nproc} < 4; the workloads are sized "
            "for 4 cores and their timings are not comparable")
    return {"nproc": nproc, "machine": platform.machine(),
            "system": platform.system(), "release": platform.release(),
            "python": platform.python_version(), "git_head": head,
            "seed": seed, "seconds": seconds}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run only this workload (default: all four)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1],
                    help="with --workload: run the per-layer pass instead of "
                    "the end-to-end pass; without: add it")
    ap.add_argument("--runs", type=int, default=1,
                    help="measurements per workload and pass (default 1)")
    args = ap.parse_args()

    spec = load_spec()
    seconds = args.seconds or float(spec["run_seconds"])
    build()
    selftest(always=args.workload is None)
    meta = host_metadata(args.seed, seconds)

    if args.workload:
        passes = [(args.workload, bool(args.trace))]
    else:
        passes = [(w, False) for w in WORKLOADS]
        if args.trace:
            passes += [(w, True) for w in WORKLOADS]

    results = {"host": meta, "workloads": {}}
    final = {}
    attempted = failed = 0
    for name, trace in passes:
        entry = results["workloads"].setdefault(
            name, {"ranks": WORKLOADS[name][1], "units": {}, "runs": []})
        for _ in range(args.runs):
            res = measure(name, args.seed, seconds, trace)
            attempted += res["attempted"]
            failed += res["failed"]
            error_rate = (res["failed"] / res["attempted"], "share")
            metrics = {**(res["e2e"] or {}), **(res["layer"] or {}),
                       "error_rate": error_rate}
            entry["units"].update({m: u for m, (_, u) in metrics.items()})
            entry["runs"].append({
                "trace": trace, "solves": res.get("solves", 0),
                "workers": res.get("workers"), "build": res.get("build"),
                "metrics": {m: v for m, (v, _) in metrics.items()}})
            shown = (res["layer"] if trace else res["e2e"]) or {}
            for m, (v, unit) in shown.items():
                print(f"{name}.{m} {fmt(v)} {unit}")
                final[m if args.workload else f"{name}.{m}"] = {
                    "value": v, "unit": unit}
            if not trace:
                print(f"{name}.solves {res.get('solves', 0)} count")
                print(f"{name}.error_rate {fmt(error_rate[0])} share")
            sys.stdout.flush()

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    label = args.workload or "all"
    path = os.path.join(BUILD, "results",
                        f"{label}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    log(f"run.py: results written to {os.path.relpath(path, ROOT)}")

    ok = failed == 0 and attempted > 0
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": final}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
