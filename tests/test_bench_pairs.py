"""``tools/bench_pairs.py`` flags wrong runs and metrics beyond their bound, and writes JSON."""

from __future__ import annotations

import importlib.util
import json
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


def test_json_summary_holds_the_pair_rule_fields(tmp_path, monkeypatch, capsys):
    """The change's ``peak_rss_mb`` reads 90 against the parent's 100, 101, 102, 103."""
    bench_pairs = _load_bench_pairs()
    metrics = ("setup_s", "wall_s", "step_ms.p50", "step_ms.p99", "peak_rss_mb", "neg_logdet")
    environment = {"nproc": 1, "numpy": "x"}

    def run_once(tree, workload, seed, seconds):
        peak = 90.0 if tree.name == "change" else 100.0 + seed - 5
        return {"correct": True, "failed": 0, "environment": environment,
                **{name: peak if name == "peak_rss_mb" else 1.0 for name in metrics}}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())

    path = tmp_path / "pairs.json"
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--pairs", "4", "--seconds", "3",
                             "--seed", "5", "--json", str(path)])
    text = capsys.readouterr().out
    assert code == 0
    summary = json.loads(path.read_text())
    assert {key: summary[key] for key in ("workload", "pairs", "seconds", "seeds")} == {
        "workload": "w", "pairs": 4, "seconds": 3, "seeds": [5, 6, 7, 8]}
    assert summary["heads"] == {"parent": None, "change": None}  # not git checkouts
    assert summary["environment"] == environment
    rows = {row["name"]: row for row in summary["metrics"]}
    assert list(rows) == list(metrics)
    peak = rows["peak_rss_mb"]
    assert peak["parent"] == {"median": 101.5, "q1": 100.75, "q3": 102.25}
    assert peak["change"] == {"median": 90.0, "q1": 90.0, "q3": 90.0}
    assert (peak["wins"], peak["pairs"], peak["gap_over_iqr"], peak["worse"]) == (4, 4, True,
                                                                                 False)
    assert peak["relative"] == 90.0 / 101.5 - 1.0
    assert (rows["wall_s"]["wins"], rows["wall_s"]["gap_over_iqr"]) == (0, False)
    assert [run["peak_rss_mb"] for run in summary["runs"]["parent"]] == [100.0, 101.0, 102.0,
                                                                         103.0]
    # The text summary is printed as before.
    assert "peak_rss_mb" in text and "  4/4        yes   -11.3%" in text
