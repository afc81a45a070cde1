"""Alternating benchmark pairs of two checkouts, summarised for the pair rule.

Usage: python tools/bench_pairs.py <parent-tree> <change-tree> --workload W
           --pairs N --seconds S [--seed K]

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
Exits 1 after the summary, naming the runs, if any run read ``"correct":
false`` or ``failed`` above 0.
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
    return {"correct": result["correct"], "failed": result["failed"],
            **{name: entry["value"] for name, entry in result["metrics"].items()}}


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> list[str]:
    lines = [f"{'metric':<14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
             f" {'wins':>6} {'gap > IQR':>9} {'change':>8} {'> bound':>7}"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = np.array([run[name] for run in runs["parent"]])
        change = np.array([run[name] for run in runs["change"]])
        wins = int(np.sum(change < parent if lower else change > parent))
        quartiles = {side: np.percentile(values, [25, 50, 75])
                     for side, values in zip(SIDES, (parent, change))}
        gain = quartiles["parent"][1] - quartiles["change"][1]
        gain = gain if lower else -gain
        iqr = quartiles["parent"][2] - quartiles["parent"][0]
        relative = quartiles["change"][1] / quartiles["parent"][1] - 1.0
        worse = relative if lower else -relative
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {metric['unit']}"
                 for q in quartiles.values()]
        lines.append(f"{name:<14} {cells[0]:>34} {cells[1]:>34} {wins:>3}/{len(parent):<2}"
                     f" {'yes' if gain > iqr else 'no':>9} {relative:>+8.1%}"
                     f" {'WORSE' if worse > metric['bound'] else '':>7}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
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
    if wrong:
        print(f"error: correct false or failed > 0 in {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
