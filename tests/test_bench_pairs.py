"""``tools/bench_pairs.py`` flags wrong runs and metrics beyond their bound."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_wrong_run_exits_1_after_the_summary_and_a_worse_median_is_marked(
        tmp_path, monkeypatch, capsys):
    """The change is 50% slower on ``wall_s`` (bound 25%), and its second run
    reads ``"correct": false``."""
    bench_pairs = _load_bench_pairs()
    metrics = ("setup_s", "wall_s", "step_ms.p50", "step_ms.p99", "peak_rss_mb", "neg_logdet")

    def run_once(tree, workload, seed, seconds):
        change = tree.name == "change"
        return {"correct": not (change and seed == 2), "failed": 0,
                **{name: 1.5 if change and name == "wall_s" else 1.0 for name in metrics}}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())

    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--pairs", "2", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "pair 2 seed 2 change" in err
    rows = {line.split()[0]: line for line in out.splitlines() if line.split()[:1]}
    assert rows["wall_s"].rstrip().endswith("+50.0%   WORSE")
    assert rows["setup_s"].rstrip().endswith("+0.0%")
