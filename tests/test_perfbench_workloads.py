"""The benchmark's workloads must still run on the public API, at a tiny size.

``perfbench/workloads.py`` builds its inputs and checks its outputs through
qdreplay's public names (``Episode``, ``new_episode_id``, ``pool[i]``,
``greedy_map``'s indices, ...), so a change that breaks one of them fails
only the benchmark run. One repetition of each workload here, checked as the
harness checks it, catches that in the tests.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import qdreplay

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # @dataclass looks its module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return (_load("perfbench_workloads", PERFBENCH / "workloads.py"),
            _load("perfbench_tracing", PERFBENCH / "tracing.py"))


def _run_once(workload, tracing, seed: int, work: Path) -> list[str]:
    """Problems of one prepared, probed repetition, as the harness's checks report them."""
    state = workload.prepare(seed, work)
    probe = tracing.StepProbe(qdreplay.policy.LinearSoftmaxPolicy, "weighted_update")
    try:
        output = workload.repeat(seed, state, probe, lambda: None)
    finally:
        probe.remove()
    return workload.check(output) + workload.final_check(seed, state, [output])


def test_loop_workload_runs_every_variant_and_passes_its_checks(perfbench, tmp_path):
    workloads, tracing = perfbench
    workload = workloads.LoopWorkload(
        {"episodes": 6, "warmup_episodes": 6, "pretrain_steps": 8, "eval_every": 3,
         "pool_size": 20, "subset_size": 3, "refresh_period": 4}, workloads.VARIANT_NAMES)
    assert _run_once(workload, tracing, 1, tmp_path) == []


def test_select_workload_passes_its_checks(perfbench, tmp_path):
    workloads, tracing = perfbench
    workload = workloads.SelectWorkload(transitions=3000, pool_size=60, subset_size=8)
    assert _run_once(workload, tracing, 1, tmp_path) == []
