"""Launch the qdreplay benchmark: each workload runs in a worker process of its own.

    python3 perfbench/run.py --workload loop_default --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The launcher caps BLAS threads at the number of usable cores before the
worker imports numpy, so load comes from one process with at most that many
BLAS threads. It relays the worker's output unchanged; the last line of a
successful run is the worker's JSON result. ``--workload all`` runs every
workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 175
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def workload_names() -> list[str]:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in contract["workloads"]]


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            requested = int(env.get(var, cores))
        except ValueError:
            requested = cores
        env[var] = str(max(1, min(requested, cores)))
    return env


def run_worker(args, workload: str) -> int:
    command = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        return subprocess.run(command, cwd=ROOT, env=worker_env(),
                              timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload {workload} ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qdreplay benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workload_names()
    if args.workload == "all":
        codes = [run_worker(args, name) for name in names]
        return max(codes)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(names)} or all)")
    return run_worker(args, args.workload)


if __name__ == "__main__":
    sys.exit(main())
