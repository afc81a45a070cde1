"""Alternating benchmark pairs of two checkouts, summarised for the pair rule.

Usage: python tools/bench_pairs.py <parent-tree> <change-tree> --workload W
           --pairs N --seconds S [--seed K] [--json PATH]

Each tree is a checkout of this repository, the directory that holds
``perfbench/``. Pair i runs ``python3 perfbench/run.py --workload W --seed
K+i --seconds S --trace 0`` in both trees, the parent first in even pairs and
the change first in odd ones, and reads the JSON result on the last line of
each run's output. It prints every run's end-to-end metrics, then per metric
each side's median and quartiles, the change's wins out of the pairs (ties
count for neither side; the better direction comes from the change's
``BENCHMARK.json``), whether the medians differ by more than the parent's
interquartile range, the change's median relative to the parent's, and
``WORSE`` where it is worse by more than the metric's ``bound`` in that file.
A claimed gain needs wins in at least nine tenths of the pairs and that gap.
``--json PATH`` also writes that summary as JSON, with the workload, the
seeds, the pair count, ``--seconds``, each tree's ``git rev-parse HEAD``
(null when the tree is not a git checkout), the first run's ``environment``
line and every run's metrics. Exits 1 after the summary, naming the runs, if
any run read ``"correct": false`` or ``failed`` above 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: {' '.join(command)} in {tree} exited {done.returncode}")
    result = json.loads(lines[-1])
    environment = next((json.loads(line.split(" ", 1)[1]) for line in lines
                        if line.startswith("environment ")), None)
    return {"correct": result["correct"], "failed": result["failed"],
            "environment": environment,
            **{name: entry["value"] for name, entry in result["metrics"].items()}}


def git_head(tree: Path) -> str | None:
    """The commit a checkout is at, or None when ``tree`` is not the top of a checkout."""
    done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    lines = done.stdout.split()
    if done.returncode != 0 or Path(lines[0]).resolve() != tree.resolve():
        return None
    return lines[1]


def compare(runs: dict[str, list[dict]], metric: dict) -> dict:
    """One metric's pair-rule summary over the runs of both sides."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = np.array([run[name] for run in runs["parent"]])
    change = np.array([run[name] for run in runs["change"]])
    quartiles = {side: np.percentile(values, [25, 50, 75])
                 for side, values in zip(SIDES, (parent, change))}
    gain = quartiles["parent"][1] - quartiles["change"][1]
    relative = quartiles["change"][1] / quartiles["parent"][1] - 1.0
    return {
        "name": name,
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        **{side: {"median": float(q[1]), "q1": float(q[0]), "q3": float(q[2])}
           for side, q in quartiles.items()},
        "wins": int(np.sum(change < parent if lower else change > parent)),
        "pairs": len(parent),
        "gap_over_iqr": bool((gain if lower else -gain)
                             > quartiles["parent"][2] - quartiles["parent"][0]),
        "relative": float(relative),
        "worse": bool((relative if lower else -relative) > metric["bound"]),
    }


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> list[str]:
    lines = [f"{'metric':<14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
             f" {'wins':>6} {'gap > IQR':>9} {'change':>8} {'> bound':>7}"]
    for metric in metrics:
        row = compare(runs, metric)
        cells = [f"{row[side]['median']:.4g} [{row[side]['q1']:.4g}, {row[side]['q3']:.4g}]"
                 f" {row['unit']}" for side in SIDES]
        lines.append(f"{row['name']:<14} {cells[0]:>34} {cells[1]:>34}"
                     f" {row['wins']:>3}/{row['pairs']:<2}"
                     f" {'yes' if row['gap_over_iqr'] else 'no':>9} {row['relative']:>+8.1%}"
                     f" {'WORSE' if row['worse'] else '':>7}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--json", type=Path, help="also write the summary as JSON here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    wrong = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(trees[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            values = "  ".join(f"{m['name']} {result[m['name']]:.4g}" for m in metrics)
            print(f"pair {i + 1} seed {seed} {side:<6} correct {result['correct']}"
                  f" failed {result['failed']}  {values}", flush=True)
            if not result["correct"] or result["failed"] > 0:
                wrong.append(f"pair {i + 1} seed {seed} {side}")
    print(f"\n{args.workload}: {args.pairs} alternating pairs, --seconds {args.seconds},"
          f" seeds {args.seed}-{args.seed + args.pairs - 1}")
    print("\n".join(summarise(runs, metrics)))
    if args.json:
        names = [metric["name"] for metric in metrics]
        args.json.write_text(json.dumps({
            "workload": args.workload,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seeds": list(range(args.seed, args.seed + args.pairs)),
            "heads": {side: git_head(tree) for side, tree in trees.items()},
            "environment": runs["parent"][0]["environment"],
            "metrics": [compare(runs, metric) for metric in metrics],
            "runs": {side: [{key: run[key] for key in ("correct", "failed", *names)}
                            for run in side_runs] for side, side_runs in runs.items()},
        }, indent=1) + "\n")
    if wrong:
        print(f"error: correct false or failed > 0 in {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
