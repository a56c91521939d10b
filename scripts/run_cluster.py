#!/usr/bin/env python3
"""Fork/exec launcher for multi-process clique runs.

Spawns P ranks of the self-checking `cca_node` worker (tools/cca_node.cpp)
with identical workload arguments, wires them together over a localhost TCP
mesh (rank r listens on port_base + r; lower ranks dial higher ranks), waits
for all of them, and reports pass/fail. Each rank independently cross-checks
its sharded run against a single-process in-process oracle — bit-identical
owned result rows AND bit-identical deterministic TrafficStats — so a green
launcher run is a full distributed-correctness check, not just "it didn't
crash".

Usage:
  scripts/run_cluster.py --nprocs 4 --workload mm --n 27 [--seed 7]
  scripts/run_cluster.py --nprocs 2 --workload apsp --n 8 \
      --binary build/cca_node
"""

import argparse
import os
import socket
import subprocess
import sys


def find_binary(explicit):
    if explicit:
        if not os.path.isfile(explicit):
            sys.exit(f"run_cluster: binary not found: {explicit}")
        return explicit
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates = [
        os.path.join(root, d, "cca_node")
        for d in ("build", "build-asan", "build-tsan")
    ]
    for c in candidates:
        if os.path.isfile(c):
            return c
    sys.exit(
        "run_cluster: no cca_node binary found (looked in build*/); "
        "build it with `cmake --build build --target cca_node` or pass "
        "--binary"
    )


def free_port_base(nprocs):
    """Reserve nprocs consecutive ports by binding them all, then release.

    There is an inherent race between releasing and the ranks re-binding,
    but the ranks retry nothing on bind (fail fast), so collisions surface
    as an immediate clean failure rather than a hang.
    """
    for base in range(20000, 60000, max(nprocs, 16)):
        socks = []
        try:
            for r in range(nprocs):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                s.bind(("127.0.0.1", base + r))
                socks.append(s)
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    sys.exit("run_cluster: no free port range found")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nprocs", type=int, required=True, help="rank count P")
    ap.add_argument(
        "--workload",
        required=True,
        choices=[
            "mm",
            "mm_sparse",
            "apsp",
            "apsp_auto",
            "apsp_batch",
            "seidel",
            "girth",
            "witness",
            "triangles",
            "fault_mix",
        ],
    )
    ap.add_argument("--n", type=int, required=True, help="clique size n")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--port-base", type=int, default=0,
                    help="first listen port (default: auto-pick a free range)")
    ap.add_argument("--binary", default=None,
                    help="path to cca_node (default: search build*/)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="per-run wall clock limit in seconds")
    args = ap.parse_args()

    if args.nprocs < 1:
        sys.exit("run_cluster: --nprocs must be >= 1")
    if args.nprocs > args.n:
        sys.exit(
            f"run_cluster: P={args.nprocs} ranks need P <= n={args.n} "
            "(every rank must own at least one node)"
        )

    binary = find_binary(args.binary)
    port_base = args.port_base or free_port_base(args.nprocs)

    procs = []
    for rank in range(args.nprocs):
        cmd = [
            binary,
            "--rank", str(rank),
            "--nprocs", str(args.nprocs),
            "--port-base", str(port_base),
            "--workload", args.workload,
            "--n", str(args.n),
            "--seed", str(args.seed),
        ]
        # Capture stderr so a failing rank's diagnostics (mismatch reports,
        # typed ownership errors) can be surfaced with its exit status
        # instead of interleaving silently with the other ranks.
        procs.append(subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True))

    def reap_all():
        for p in procs:
            if p.poll() is None:
                p.kill()
        for p in procs:
            try:
                p.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass

    failed = []
    try:
        for rank, p in enumerate(procs):
            try:
                _, err = p.communicate(timeout=args.timeout)
            except subprocess.TimeoutExpired:
                reap_all()
                sys.exit(
                    f"run_cluster: TIMEOUT after {args.timeout:.0f}s "
                    f"(workload={args.workload} n={args.n} P={args.nprocs})"
                )
            if p.returncode != 0:
                failed.append((rank, p.returncode))
                if err:
                    sys.stderr.write(
                        f"--- rank {rank} stderr (exit {p.returncode}) ---\n"
                    )
                    sys.stderr.write(err)
    except KeyboardInterrupt:
        # ^C mid-run: kill and reap every straggler child so no rank is
        # left holding its listen port or spinning in the mesh handshake.
        reap_all()
        sys.exit(
            f"run_cluster: interrupted (workload={args.workload} "
            f"n={args.n} P={args.nprocs}); all ranks reaped"
        )

    if failed:
        detail = ", ".join(f"rank {r} exit {rc}" for r, rc in failed)
        print(
            f"run_cluster: FAILED ({detail}) workload={args.workload} "
            f"n={args.n} P={args.nprocs}",
            file=sys.stderr,
        )
        sys.exit(1)
    print(
        f"run_cluster: PASS workload={args.workload} n={args.n} "
        f"P={args.nprocs} port_base={port_base}"
    )


if __name__ == "__main__":
    main()
