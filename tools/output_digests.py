"""Digests of every seeded CLI output, for comparing two source trees.

Usage: python tools/output_digests.py <src-dir>

Runs ``python -m qdreplay`` with ``PYTHONPATH=<src-dir>`` and BLAS at one
thread, in a temporary directory:

- ``loop`` for each of the four variants at the default config, seed 1;
- ``loop`` for FULL, UNIFORM and QUALITY_ONLY on a churn config (capacity
  1500, pool 200, k 30, a refresh every 10 steps), seed 1, so that FIFO
  eviction shifts the window ids under the selection, UNIFORM's
  metric-time pseudo-selection and the top-k logdet;
- ``loop`` for FULL with RAW weights, eta 0.55 and batch size 30, seed 1,
  so that eta * B = 16.5 is not a whole number;
- ``loop`` for FULL at ``rtg_target = 0.5``, seed 1, so that a policy
  acting at some other return-to-go moves the digests;
- ``ablate`` over seeds 1 and 2;
- ``select --kernel-dump`` on a dump of about 20k transitions, which the
  same tree generates from seeded rollouts (seed 7) and ``save_jsonl``;
- ``select`` at pool 600, k 100 on the same dump, so that greedy MAP makes
  100 picks on a pool whose windows share embeddings and tie in rounding;
- ``select`` on a dump of about 40k transitions, generated the same way,
  which ``load_jsonl`` splits into two ranges of rows or more on a host
  with two usable cores or more, so that the forked workers' columns are
  in the digests;
- ``select`` on a copy of that dump with its lines shuffled by a fixed
  permutation, which ``load_jsonl`` must put back in (episode, t) order:
  its ``selection.json`` is the in-order dump's, byte for byte.

Each command's stdout is saved as ``<out>.stdout`` next to its output
directory (``dump.stdout``, ``dump_40k.stdout`` and ``dump_40k_shuffled.stdout``
for the dump scripts); the CLI prints relative paths, so those bytes are
stable too. Prints one
``sha256  path`` line per output file, sorted by path, so the ``diff`` of
two runs lists the files whose bytes moved.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VARIANTS = ("FULL", "QUALITY_ONLY", "DIVERSITY_ONLY", "UNIFORM")
CHURN_CONFIG = "capacity = 1500\npool_size = 200\nsubset_size = 30\nrefresh_period = 10\n"
RAW_CONFIG = "weight_mode = RAW\neta = 0.55\nbatch_size = 30\n"
RTG_CONFIG = "rtg_target = 0.5\n"
SELECT_CONFIG = "pool_size = 300\nsubset_size = 40\n"
SELECT_600_CONFIG = "pool_size = 600\nsubset_size = 100\n"

# Scripted demonstrations at three noise levels and uniform-random rollouts.
MAKE_DUMP = """
import sys
import numpy as np
import qdreplay as qd

rng = np.random.default_rng(7)
env = qd.StageChainEnv()
actors = [qd.bench.ScriptedDemonstrator(env, eps) for eps in (0.1, 0.3, 0.6)]
actors.append(qd.bench.RandomPolicy(env.action_count))
size = int(sys.argv[2])
buffer = qd.ReplayBuffer(capacity=2 * size, gamma=1.0)
while len(buffer) < size:
    episode_id = buffer.new_episode_id()
    transitions, _ = qd.bench.rollout(env, actors[episode_id % len(actors)], rng)
    buffer.append_episode(qd.Episode(id=episode_id, transitions=transitions))
qd.save_jsonl(buffer, sys.argv[1])
"""

# The lines of argv[1] in the order of a seeded permutation, written to argv[2].
SHUFFLE_DUMP = """
import sys
import numpy as np

with open(sys.argv[1]) as fh:
    lines = fh.readlines()
order = np.random.default_rng(int(sys.argv[3])).permutation(len(lines))
with open(sys.argv[2], "w") as fh:
    fh.writelines(lines[i] for i in order.tolist())
"""
SHUFFLE_SEED = "11"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/output_digests.py <src-dir>", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)

        def run(name: str, *args: str) -> None:
            with open(out / f"{name}.stdout", "w") as stdout:
                subprocess.run([sys.executable, *args], cwd=out, env=env, check=True,
                               stdout=stdout)

        (out / "churn.cfg").write_text(CHURN_CONFIG)
        (out / "raw.cfg").write_text(RAW_CONFIG)
        (out / "rtg.cfg").write_text(RTG_CONFIG)
        (out / "select.cfg").write_text(SELECT_CONFIG)
        (out / "select_600.cfg").write_text(SELECT_600_CONFIG)
        for variant in VARIANTS:
            run(f"loop_{variant}", "-m", "qdreplay", "loop", "--variant", variant,
                "--seed", "1", "--out", f"loop_{variant}")
        run("churn", "-m", "qdreplay", "loop", "--config", "churn.cfg", "--seed", "1",
            "--out", "churn")
        for variant in ("UNIFORM", "QUALITY_ONLY"):
            run(f"churn_{variant}", "-m", "qdreplay", "loop", "--config", "churn.cfg",
                "--variant", variant, "--seed", "1", "--out", f"churn_{variant}")
        run("raw", "-m", "qdreplay", "loop", "--config", "raw.cfg", "--seed", "1", "--out", "raw")
        run("rtg", "-m", "qdreplay", "loop", "--config", "rtg.cfg", "--seed", "1", "--out", "rtg")
        run("ablate", "-m", "qdreplay", "ablate", "--seed", "1", "--seed", "2", "--out", "ablate")
        run("dump", "-c", MAKE_DUMP, "dump.jsonl", "20000")
        run("dump_40k", "-c", MAKE_DUMP, "dump_40k.jsonl", "40000")
        run("select", "-m", "qdreplay", "select", "dump.jsonl", "--kernel-dump",
            "--config", "select.cfg", "--seed", "1", "--out", "select")
        run("select_600", "-m", "qdreplay", "select", "dump.jsonl", "--config", "select_600.cfg",
            "--seed", "1", "--out", "select_600")
        run("select_40k", "-m", "qdreplay", "select", "dump_40k.jsonl", "--config", "select.cfg",
            "--seed", "1", "--out", "select_40k")
        run("dump_40k_shuffled", "-c", SHUFFLE_DUMP, "dump_40k.jsonl", "dump_40k_shuffled.jsonl",
            SHUFFLE_SEED)
        run("select_40k_shuffled", "-m", "qdreplay", "select", "dump_40k_shuffled.jsonl",
            "--config", "select.cfg", "--seed", "1", "--out", "select_40k_shuffled")
        outputs = sorted(p for p in out.rglob("*") if p.is_file() and p.suffix != ".cfg")
        for path in outputs:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
