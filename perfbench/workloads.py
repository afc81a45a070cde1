"""The benchmark's workloads: inputs, one timed repetition, and output checks.

Each workload only calls public functions of qdreplay. Inputs come from the
workload seed alone, so a seed always produces the same inputs and outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import qdreplay as qd
import qdreplay.cli  # noqa: F401  (makes qd.cli available)

VARIANT_NAMES = ("FULL", "QUALITY_ONLY", "DIVERSITY_ONLY", "UNIFORM")


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------------ loop workloads

@dataclass
class LoopOutput:
    results: list                 # one qdreplay RunResult per variant
    intervals: list[list[float]]  # per variant: seconds between consecutive online steps
    cpu_intervals: list[list[float]]  # the same intervals in process CPU seconds
    problems: list[str]


class LoopWorkload:
    """``run_loop`` on one seed for each listed variant.

    A repetition is every variant's whole training run. The step probe stamps
    each ``weighted_update``; the first ``pretrain_steps`` stamps of a run are
    the identical uniform pretraining pass, so intervals start at the last of
    them and cover the online steps only.
    """

    setup_repeats = 5

    def __init__(self, config_overrides: dict, variants: tuple[str, ...]):
        self.config = replace(qd.LoopConfig(), **config_overrides)
        self.variant_names = variants

    def prepare(self, seed: int, work: Path):
        """No inputs to generate; the warm-up is a short run of each variant."""
        config = self.config
        short = replace(config, episodes=8, warmup_episodes=8, pretrain_steps=16,
                        eval_every=4, eval_episodes=4,
                        refresh_period=min(config.refresh_period, 8))
        for name in self.variant_names:
            qd.bench.run_loop(short, qd.Variant[name], seed)
        return config

    def repeat(self, seed: int, config, probe, window_count) -> LoopOutput:
        results, intervals, cpu_intervals, problems = [], [], [], []

        def audit(event):
            ids = event["Y"]
            bound = window_count()
            bound = config.capacity if bound is None else bound
            if len(set(ids)) != len(ids) or any(not 0 <= i < bound for i in ids):
                problems.append(f"step {event['step']}: audit ids {ids} not distinct "
                                f"and below the window count {bound}")

        for name in self.variant_names:
            mark = len(probe.stamps)
            result = qd.bench.run_loop(config, qd.Variant[name], seed, audit_callback=audit)
            stamps, cpu_stamps = probe.stamps[mark:], probe.cpu_stamps[mark:]
            expected = config.pretrain_steps + config.episodes * config.updates_per_episode
            if len(stamps) != expected:
                problems.append(f"{name}: {len(stamps)} gradient steps, expected {expected}")
            intervals.append(np.diff(stamps[config.pretrain_steps - 1:]).tolist())
            cpu_intervals.append(np.diff(cpu_stamps[config.pretrain_steps - 1:]).tolist())
            results.append(result)
        return LoopOutput(results, intervals, cpu_intervals, problems)

    def check(self, output: LoopOutput) -> list[str]:
        problems = list(output.problems)
        for result in output.results:
            name = result.variant.name
            if not result.metrics:
                problems.append(f"{name}: no metrics")
            if any(not 0.0 <= m.success_rate <= 1.0 for m in result.metrics):
                problems.append(f"{name}: success_rate outside [0, 1]")
            if (name == "UNIFORM") != (not result.selection_events):
                problems.append(f"{name}: {len(result.selection_events)} selection events")
        return problems

    def final_check(self, seed, config, outputs) -> list[str]:
        return []

    def digest(self, output: LoopOutput) -> str:
        return _sha256([[r.variant.name, [asdict(m) for m in r.metrics], r.selection_events]
                        for r in output.results])

    def step_intervals(self, outputs, walls) -> list[list[float]]:
        """One list of intervals per training run, about 1200 each."""
        return [run for output in outputs for run in output.intervals]

    def tail_intervals(self, outputs, walls) -> list[list[float]]:
        """The step intervals of each training run in process CPU seconds."""
        return [run for output in outputs for run in output.cpu_intervals]

    def neg_logdet(self, output: LoopOutput) -> float:
        """Mean of -logdet over FULL's refreshes (kernel entries <= 1 + lam, so logdet < 0)."""
        (full,) = [r for r in output.results if r.variant.name == "FULL"]
        return float(np.mean([-e["logdet"] for e in full.selection_events]))

    def refreshes(self, output: LoopOutput) -> tuple[int, int]:
        """Refresh count, and how many ran off the cadence (selection evicted)."""
        events = [e for r in output.results for e in r.selection_events]
        return len(events), sum(1 for e in events if e["step"] % self.config.refresh_period)


# ---------------------------------------------------------------- select workload

@dataclass
class SelectInputs:
    dump: Path
    config: Path
    out: Path


@dataclass
class SelectOutput:
    text: str
    payload: dict
    problems: list[str]


class SelectWorkload:
    """``qdreplay select`` through ``cli.main`` on a generated JSONL dump.

    The dump mixes noisy scripted demonstrations at several epsilons with
    uniform-random rollouts, so returns, stages and episode lengths vary.
    The program only sees the file.
    """

    setup_repeats = 3
    EPSILONS = (0.1, 0.3, 0.6)
    WARM_EPISODES = 100

    def __init__(self, transitions: int, pool_size: int, subset_size: int):
        self.transitions = transitions
        self.pool_size = pool_size
        self.subset_size = subset_size

    def prepare(self, seed: int, work: Path) -> SelectInputs:
        rng = np.random.default_rng(seed)
        env = qd.StageChainEnv()
        actors = [qd.bench.ScriptedDemonstrator(env, eps) for eps in self.EPSILONS]
        actors.append(qd.bench.RandomPolicy(env.action_count))
        full = qd.ReplayBuffer(capacity=2 * self.transitions, gamma=1.0)
        warm = qd.ReplayBuffer(capacity=2 * self.transitions, gamma=1.0)
        while len(full) < self.transitions:
            episode_id = full.new_episode_id()
            transitions, _ = qd.bench.rollout(env, actors[episode_id % len(actors)], rng)
            episode = qd.Episode(id=episode_id, transitions=transitions)
            full.append_episode(episode)
            if episode_id < self.WARM_EPISODES:
                warm.append_episode(episode)
        inputs = SelectInputs(work / "buffer.jsonl", work / "select.cfg", work / "select-out")
        qd.save_jsonl(full, inputs.dump)
        qd.save_jsonl(warm, work / "warm.jsonl")
        inputs.config.write_text(
            f"pool_size = {self.pool_size}\nsubset_size = {self.subset_size}\n")
        (work / "warm.cfg").write_text("pool_size = 200\nsubset_size = 30\n")
        self._select(work / "warm.jsonl", work / "warm.cfg", seed, work / "warm-out")
        return inputs

    @staticmethod
    def _select(dump: Path, config: Path, seed: int, out: Path) -> int:
        return qd.cli.main(["select", str(dump), "--config", str(config),
                            "--seed", str(seed), "--out", str(out)])

    def repeat(self, seed: int, inputs: SelectInputs, probe, window_count) -> SelectOutput:
        path = inputs.out / "selection.json"
        path.unlink(missing_ok=True)
        code = self._select(inputs.dump, inputs.config, seed, inputs.out)
        if code != 0:
            return SelectOutput("", {}, [f"select exited with code {code}"])
        text = path.read_text()
        return SelectOutput(text, json.loads(text), [])

    def check(self, output: SelectOutput) -> list[str]:
        problems = list(output.problems)
        if problems:
            return problems
        indices = output.payload["indices"]
        if len(set(indices)) != len(indices) or any(
                not isinstance(i, int) or not 0 <= i < self.pool_size for i in indices):
            problems.append("indices are not distinct pool positions")
        if not 1 <= len(indices) <= self.subset_size:
            problems.append(f"{len(indices)} indices for k={self.subset_size}")
        if not len(output.payload["gains"]) == len(output.payload["windows"]) == len(indices):
            problems.append("gains or windows do not match the indices")
        return problems

    def final_check(self, seed: int, inputs: SelectInputs, outputs) -> list[str]:
        """Rebuild pool and kernel from public functions; compare every output.

        The rebuilt stage-by-stage pipeline must pick exactly the written
        indices (so fewer than k only if greedy MAP stopped early on the same
        kernel), and the written logdet must match numpy's slogdet of the
        kernel submatrix.
        """
        config = replace(qd.LoopConfig(), pool_size=self.pool_size, subset_size=self.subset_size)
        buffer = qd.load_jsonl(inputs.dump, gamma=config.gamma)
        policy_ss, pool_ss, score_ss = np.random.SeedSequence(seed).spawn(3)
        pool = buffer.sample_candidate_pool(config.pool_size, config.horizon,
                                            np.random.default_rng(pool_ss))
        policy = qd.LinearSoftmaxPolicy(
            state_dim=buffer.state_dim, action_count=config.action_count,
            feature_dim=config.feature_dim, dropout_rate=config.dropout_rate, seed=policy_ss)
        embeddings = qd.encode_pool(pool, policy)
        similarity = qd.rbf_similarity(embeddings, qd.median_bandwidth(embeddings))
        quality = qd.composite_quality(
            pool, config.quality_weights(), policy, passes=config.passes, gamma=config.gamma,
            seed=int(np.random.default_rng(score_ss).integers(2 ** 31)),
            smoothing_alpha=config.smoothing_alpha).composite
        kernel = qd.build_joint_kernel(similarity, quality, config.lam).values
        reference = qd.greedy_map(kernel, min(config.subset_size, len(pool)))

        problems = []
        for output in outputs:
            indices = output.payload.get("indices", [])
            if indices != reference.indices:
                problems.append("indices differ from the stage-by-stage pipeline")
                continue
            sign, logdet = np.linalg.slogdet(kernel[np.ix_(indices, indices)])
            if sign <= 0 or not math.isclose(output.payload["logdet"], logdet,
                                             rel_tol=1e-9, abs_tol=1e-6):
                problems.append(f"logdet {output.payload['logdet']} != slogdet {logdet}")
            windows = [{"episode": pool[i].episode_id, "start": pool[i].start} for i in indices]
            if output.payload["windows"] != windows:
                problems.append("windows do not match the selected pool entries")
        return problems

    def digest(self, output: SelectOutput) -> str:
        return hashlib.sha256(output.text.encode()).hexdigest()

    def step_intervals(self, outputs, walls) -> list[list[float]]:
        """A select run has no gradient steps: its step is one whole select call."""
        return [list(walls)]

    tail_intervals = step_intervals

    def neg_logdet(self, output: SelectOutput) -> float:
        return -float(output.payload["logdet"])

    def refreshes(self, output: SelectOutput) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {
    "loop_default": LoopWorkload({}, VARIANT_NAMES),
    "loop_churn": LoopWorkload(
        {"capacity": 2500, "pool_size": 400, "subset_size": 60, "refresh_period": 25},
        ("FULL",)),
    "select_large": SelectWorkload(transitions=115_000, pool_size=2000, subset_size=300),
}
