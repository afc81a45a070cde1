"""qdreplay benchmark worker: one workload, one seed, in one process.

Start it through ``run.py``, which caps BLAS threads before numpy loads:

    python3 perfbench/run.py --workload loop_default --seed 1 --seconds 10 --trace 0

The worker imports qdreplay from ``src/`` of the checkout it sits in, sets the
workload up several times (inputs plus an untimed warm-up), then times
repetitions until ``--seconds`` have passed (at least one). With ``--trace 1``
one more repetition runs with a span on every layer boundary. Every
repetition's output is checked; the last line of stdout is one JSON object
with the metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
TAIL_SAMPLES = 10  # samples a reported tail percentile must leave above it


def import_qdreplay():
    """Import the package from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qdreplay
    import qdreplay.cli  # noqa: F401
    if not Path(qdreplay.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"qdreplay imported from {qdreplay.__file__}, not from {src}")
    return qdreplay


def source_hash() -> str:
    """Hash of the package and benchmark sources, which together fix the outputs."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    blas = {"name": "unknown", "version": "unknown"}
    try:
        blas.update(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy wheels bundle, if any."""
    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def load_contract() -> tuple[list[dict], list[dict]]:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return contract["end_to_end"], contract["per_layer"]


def median(values) -> float:
    return float(np.median(values))


def tail_ms(runs: list[list[float]]) -> float:
    """Median over training runs of each run's p99 step interval, in ms.

    Each run's p99 must leave TAIL_SAMPLES samples above it. Taking the median
    across runs keeps one run's burst of host noise out of the figure. Runs
    too short for a tail (a select run makes a handful of calls) report their
    median interval instead.
    """
    q = 99 if min(map(len, runs)) * 0.01 >= TAIL_SAMPLES else 50
    return 1000.0 * median([np.percentile(run, q) for run in runs])


def run(args) -> int:
    qd = import_qdreplay()
    import_s = time.perf_counter() - PROCESS_START

    from tracing import StepProbe, Tracer, install_layer_spans
    from workloads import WORKLOADS

    end_to_end, per_layer = load_contract()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    setup_times = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        state = workload.prepare(args.seed, work)
        setup_times.append(time.perf_counter() - start)

    attempted = failed = 0
    walls, outputs = [], []
    probe = StepProbe(qd.policy.LinearSoftmaxPolicy, "weighted_update")

    def repetition(tracer=None):
        nonlocal attempted, failed
        attempted += 1
        window_count = (lambda: tracer.window_count) if tracer else (lambda: None)
        start = time.perf_counter()
        try:
            output = workload.repeat(args.seed, state, probe, window_count)
        except Exception:
            traceback.print_exc()
            failed += 1
            return None, None
        wall = time.perf_counter() - start
        problems = workload.check(output)
        if problems:
            print(f"repetition {attempted} failed its checks: {problems}", file=sys.stderr)
            failed += 1
            return None, None
        return wall, output

    # Only repetitions that completed and passed their checks are measured.
    timed_start = time.perf_counter()
    while not walls or time.perf_counter() - timed_start < args.seconds:
        wall, output = repetition()
        if wall is not None:
            walls.append(wall)
            outputs.append(output)
        elif not walls and attempted >= 3:
            break
    if not walls:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = traced_wall = traced_output = None
    if args.trace:
        tracer = Tracer()
        install_layer_spans(tracer, qd)
        try:
            traced_wall, traced_output = repetition(tracer)
        finally:
            tracer.remove()
    probe.remove()

    checked = outputs + ([traced_output] if traced_output is not None else [])
    problems = workload.final_check(args.seed, state, checked)
    problems += check_digests(workload, args, checked)
    if problems:
        print(f"output checks failed: {problems}", file=sys.stderr)
        failed = attempted

    runs = workload.step_intervals(outputs, walls)
    e2e_values = {
        "setup_s": import_s + median(setup_times),
        "wall_s": median(walls),
        "step_ms.p50": 1000.0 * median(np.concatenate(runs)),
        "step_ms.p99": tail_ms(workload.tail_intervals(outputs, walls)),
        "peak_rss_mb": peak_rss_mb,
        "neg_logdet": workload.neg_logdet(outputs[0]),
    }
    if args.trace:
        if traced_wall is None:
            print("error: the traced repetition failed", file=sys.stderr)
            return 1
        tracer.write(work / "spans.tsv")
        values = layer_metrics(tracer, workload, traced_output, traced_wall, median(walls))
        listed = per_layer
    else:
        values = e2e_values
        listed = end_to_end

    metrics = {}
    for spec in listed:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = environment()
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "environment": env,
         "repetition_walls_s": walls, "setup_repeats_s": setup_times, "import_s": import_s,
         **result}, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(walls)}"
          f"{' + 1 traced' if args.trace else ''}")
    print("environment " + json.dumps(env))
    for spec in listed:
        print(f"  {spec['name']:<34} {values[spec['name']]:>14.6g} {spec['unit']:<6}"
              f" ({spec['better']} is better)")
    print(f"  {'fail_ratio':<34} {failed / attempted:>14.6g} {'ratio':<6} (lower is better)")
    print(json.dumps(result))
    return 0


def check_digests(workload, args, outputs) -> list[str]:
    """Outputs of one seed must be identical across repetitions and across runs.

    The first run of a seed in a checkout stores its output digest, keyed by
    a hash of the sources; later runs of the same seed compare with it.
    """
    digests = {workload.digest(output) for output in outputs}
    if len(digests) > 1:
        return [f"repetitions of seed {args.seed} produced {len(digests)} different outputs"]
    (digest,) = digests
    store = WORK / "digests" / f"{args.workload}-s{args.seed}-{source_hash()}.txt"
    if store.exists():
        if store.read_text().strip() != digest:
            return [f"output differs from an earlier run of seed {args.seed} ({store.name})"]
        return []
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest + "\n")
    os.replace(tmp, store)
    return []


# Spans whose call count and total seconds are reported, as "<span>.calls" and "<span>.s".
SPAN_FIELDS = {
    "windows.materialize": ("calls", "s"),
    "windows.valid_windows": ("calls", "s"),
    "windows.append_episode": ("calls", "s"),
    "windows.load_jsonl": ("s",),
    "windows.sample_candidate_pool": ("s",),
    "geometry.encode_pool": ("s",),
    "geometry.median_bandwidth": ("s",),
    "geometry.rbf_similarity": ("s",),
    "scoring.composite_quality": ("s",),
    "kernels.build_joint_kernel": ("s",),
    "kernels.greedy_map": ("calls", "s"),
    "kernels.log_det": ("s",),
    "replay.mixed_sample": ("calls", "s"),
    "replay.normalize_weights": ("s",),
    "policy.weighted_update": ("calls", "s"),
    "bench.rollout": ("s",),
    "bench.evaluate_policy": ("s",),
}
LAYERS = ("windows", "policy", "geometry", "scoring", "kernels", "replay", "bench", "cli")


def layer_metrics(tracer, workload, output, traced_wall: float, untraced_wall: float) -> dict:
    stats = tracer.summary()

    def field(span: str, key: str) -> float:
        return stats.get(span, {}).get(key, 0)

    values: dict[str, float] = {}
    for span, keys in SPAN_FIELDS.items():
        for key in keys:
            values[f"{span}.{key}"] = field(span, key)
    for variant in ("FULL", "QUALITY_ONLY", "DIVERSITY_ONLY", "UNIFORM"):
        values[f"bench.run_loop.{variant}.s"] = field(f"bench.run_loop.{variant}", "s")
    values["bench.run_loop.self_s"] = sum(
        entry["self_s"] for span, entry in stats.items() if span.startswith("bench.run_loop."))
    values["cli.select.self_s"] = field("cli.select", "self_s")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            entry["self_s"] for span, entry in stats.items() if span.split(".")[0] == layer)
    values["windows.evicted_episodes"] = tracer.counters["windows.evicted_episodes"]
    values["kernels.greedy_map.early_stops"] = tracer.counters["kernels.greedy_map.early_stops"]
    values["bench.refresh.count"], values["bench.refresh.offcadence"] = workload.refreshes(output)

    steps = field("policy.weighted_update", "calls")
    appends = field("windows.append_episode", "calls")
    values["windows.materialize.per_step"] = field("windows.materialize", "calls") / steps if steps else 0.0
    values["windows.valid_windows.per_append"] = (
        field("windows.valid_windows", "calls") / appends if appends else 0.0)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    values["trace.unattributed_ratio"] = (traced_wall - tracer.root_seconds()) / traced_wall
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
