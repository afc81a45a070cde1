"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
inline) and enforces the stated tolerance and runtime budget.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from qdreplay.bench import LoopConfig, Variant, run_ablation
from qdreplay.kernels import (
    build_joint_kernel,
    exhaustive_map,
    greedy_map,
    kdpp_sample,
    kdpp_subset_probability,
    log_det,
)
from qdreplay.geometry import median_bandwidth, rbf_similarity
from qdreplay.policy import LinearSoftmaxPolicy
from replay_estimate import estimate_uniform_mean
from qdreplay.scoring import predictive_uncertainty, rtg_quantiles, stage_coverage
from qdreplay.windows import Episode, EpisodeArrays, ReplayBuffer


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _random_similarity(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, max(2, n // 4)))
    return rbf_similarity(z, median_bandwidth(z))


def _random_kernel(n: int, rng: np.random.Generator, eig_min: float, eig_max: float) -> np.ndarray:
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.uniform(eig_min, eig_max, size=n)
    kernel = (basis * vals) @ basis.T
    return (kernel + kernel.T) / 2.0


def test_criterion_1_kernel_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 33))
        s = _random_similarity(n, rng)
        q = rng.uniform(1e-5, 1.0, size=n)
        lam = float(rng.uniform(0.0, 0.2))
        kernel = build_joint_kernel(s, q, lam).values
        root = np.sqrt(q)
        for i in range(n):
            for j in range(n):
                expected = (root[i] * s[i, j]) * root[j] + (lam if i == j else 0.0)
                if kernel[i, j] != expected:
                    ok = False
        if np.linalg.eigvalsh(kernel).min() < lam - 1e-8:
            ok = False
    elapsed = time.perf_counter() - start
    _report(1, "joint kernel entries exact, spectrum >= lambda - 1e-8",
            ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_2_greedy_vs_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    ratio = 1.0 - 1.0 / math.e
    bound_ok = True
    for _ in range(200):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 5))
        kernel = _random_kernel(n, rng, eig_min=1.0, eig_max=6.0)
        greedy = greedy_map(kernel, k)
        oracle = exhaustive_map(kernel, k)
        if greedy.logdet < ratio * oracle.logdet - 1e-9:
            bound_ok = False
    diag_ok = True
    for _ in range(50):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n + 1))
        diag = rng.uniform(0.5, 9.0, size=n)
        greedy = greedy_map(np.diag(diag), k)
        oracle = exhaustive_map(np.diag(diag), k)
        if sorted(greedy.indices) != oracle.indices:
            diag_ok = False
        if not math.isclose(greedy.logdet, oracle.logdet, abs_tol=1e-9):
            diag_ok = False
    elapsed = time.perf_counter() - start
    _report(2, "greedy >= (1-1/e) * exhaustive optimum; exact on diagonals",
            bound_ok and diag_ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_3_telescoping_and_complexity():
    rng = np.random.default_rng(303)
    telescoping_ok = True
    for _ in range(50):
        n = int(rng.integers(4, 40))
        k = int(rng.integers(1, min(n, 10) + 1))
        kernel = _random_kernel(n, rng, eig_min=0.5, eig_max=5.0)
        result = greedy_map(kernel, k)
        if abs(result.logdet - sum(result.gains)) > 1e-6:
            telescoping_ok = False
        idx = result.indices
        if abs(result.logdet - log_det(kernel[np.ix_(idx, idx)])) > 1e-6:
            telescoping_ok = False

    sizes = [256, 512, 1024]
    k = 8
    fastest = []
    for n in sizes:
        kernel = _random_kernel(n, rng, eig_min=1.0, eig_max=4.0)
        reps = []
        for _ in range(11):
            t0 = time.perf_counter()
            greedy_map(kernel, k)
            reps.append(time.perf_counter() - t0)
        fastest.append(min(reps))  # host pauses only lengthen a repeat
    slope = float(np.polyfit(np.log(sizes), np.log(fastest), 1)[0])
    slope_ok = 1.7 <= slope <= 2.3
    _report(3, "sum of gains telescopes to logdet; runtime slope ~ N^2",
            telescoping_ok and slope_ok, f"slope={slope:.2f}")


def test_criterion_4_exact_sampler_distribution():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    kernel = _random_kernel(5, rng, eig_min=0.3, eig_max=3.0)
    k = 2
    subsets = list(itertools.combinations(range(5), k))
    exact = np.array([kdpp_subset_probability(kernel, s) for s in subsets])
    assert exact.sum() == pytest.approx(1.0, abs=1e-9)

    draws = 100_000
    sampler_rng = np.random.default_rng(405)
    counts = Counter()
    for _ in range(draws):
        counts[tuple(kdpp_sample(kernel, k, sampler_rng))] += 1
    observed = np.array([counts[s] for s in subsets], dtype=float)
    max_abs_err = float(np.max(np.abs(observed / draws - exact)))
    statistic = float(np.sum((observed - draws * exact) ** 2 / (draws * exact)))
    critical = float(chi2.ppf(1 - 0.001, df=len(subsets) - 1))
    elapsed = time.perf_counter() - start
    _report(4, "k-DPP sampler matches det(L_Y)/e_k frequencies",
            max_abs_err <= 0.01 and statistic < critical and elapsed < 60.0,
            f"max_err={max_abs_err:.4f}, chi2={statistic:.1f}<{critical:.1f}, {elapsed:.0f}s")


def test_criterion_5_debiasing_unbiasedness():
    start = time.perf_counter()
    pool_size, selection_size, eta = 200, 20, 0.7
    batch_size, trials = 1000, 1000  # eta*B integral, 1e6 draws per function
    selection = list(range(selection_size))
    rng = np.random.default_rng(505)
    ok = True
    details = []
    for probe in range(10):
        f = rng.standard_normal(pool_size)
        estimate = estimate_uniform_mean(
            f, selection, pool_size, batch_size, eta, trials, seed=600 + probe
        )
        truth = float(f.mean())

        in_y = np.zeros(pool_size, bool)
        in_y[selection] = True
        p = np.where(in_y, eta / selection_size + (1 - eta) / pool_size,
                     (1 - eta) / pool_size)
        x = (1.0 / pool_size) / p * f
        var = eta * np.var(x[in_y]) + (1 - eta) * np.var(x)
        se = math.sqrt(var / (batch_size * trials))
        deviation = abs(estimate - truth) / se
        details.append(deviation)
        if deviation > 4.0:
            ok = False
    elapsed = time.perf_counter() - start
    _report(5, "RAW-weighted mixed replay estimates the uniform mean",
            ok and elapsed < 60.0,
            f"max |dev|={max(details):.2f} standard errors, {elapsed:.0f}s")


def test_criterion_6_quality_component_units():
    quantile_ok = rtg_quantiles([1, 2, 3, 4])[2] == 0.625
    u = predictive_uncertainty(np.array([[[0.0, 0.0]], [[2.0, 0.0]]]))  # (M, N, A) = (2, 1, 2)
    uncertainty_ok = np.array_equal(u, [2.0])
    rho = stage_coverage([0] * 8 + [1] * 2, smoothing_alpha=0.0)
    coverage_ok = np.all(rho[:8] == 0.0) and np.all(rho[8:] == 0.75)
    _report(6, "worked scoring examples reproduce exactly",
            quantile_ok and uncertainty_ok and coverage_ok)


def test_criterion_7_gradient_check():
    rng = np.random.default_rng(707)
    failures = 0
    probes = 0
    step = 1e-5
    while probes < 50:
        horizon = int(rng.integers(2, 6))
        states = np.array([rng.standard_normal(3) for _ in range(horizon)])
        actions = rng.integers(4, size=horizon)
        rewards = rng.random(horizon)
        buf = ReplayBuffer(capacity=100, gamma=0.9)
        buf.append_episode(Episode(id=0, transitions=EpisodeArrays(
            states, actions, rewards, np.zeros(horizon, dtype=np.int64),
            np.arange(horizon) == horizon - 1)))
        window = buf.gather([0], horizon)
        weights = [float(rng.uniform(0.5, 2.0))]

        policy = LinearSoftmaxPolicy(state_dim=3, action_count=4,
                                     seed=int(rng.integers(2 ** 31)))
        reference = copy.deepcopy(policy)
        start = reference.weights.ravel().copy()
        reference.weighted_update(window, weights, learning_rate=1.0)
        grad = start - reference.weights.ravel().copy()

        for index in rng.choice(start.size, size=5, replace=False):
            params = start.copy()
            params[index] += step
            policy.weights = params.reshape(policy.weights.shape)
            hi = policy.batch_loss(window, weights)
            params[index] -= 2 * step
            policy.weights = params.reshape(policy.weights.shape)
            lo = policy.batch_loss(window, weights)
            numeric = (hi - lo) / (2 * step)
            rel = abs(grad[index] - numeric) / max(abs(numeric), 1e-8)
            probes += 1
            if rel >= 1e-4:
                failures += 1
            if probes == 50:
                break
    _report(7, "analytic gradient matches central differences at 1e-4",
            failures == 0, f"{probes} probes")


def test_criterion_8_ablation_ordering():
    start = time.perf_counter()
    config = LoopConfig()
    seeds = [1, 2, 3, 4, 5]
    columns = run_ablation(config, seeds)
    med = {
        variant: {
            "success": float(np.median(column["success"])),
            "redundancy": float(np.median(column["redundancy"])),
            "diversity": float(np.median(column["diversity"])),
            "rare": float(np.median(column["rare_stage"])),
        }
        for variant, column in columns.items()
    }
    elapsed = time.perf_counter() - start
    per_seed_lower = sum(
        full < uniform
        for full, uniform in zip(columns[Variant.FULL]["redundancy"],
                                 columns[Variant.UNIFORM]["redundancy"])
    )
    checks = {
        "redundancy FULL < QUALITY_ONLY":
            med[Variant.FULL]["redundancy"] < med[Variant.QUALITY_ONLY]["redundancy"],
        "redundancy FULL < UNIFORM in >= 4 of 5 seeds": per_seed_lower >= 4,
        "diversity DIVERSITY_ONLY >= QUALITY_ONLY":
            med[Variant.DIVERSITY_ONLY]["diversity"] >= med[Variant.QUALITY_ONLY]["diversity"],
        "success FULL >= UNIFORM":
            med[Variant.FULL]["success"] >= med[Variant.UNIFORM]["success"],
        "rare-stage FULL > UNIFORM":
            med[Variant.FULL]["rare"] > med[Variant.UNIFORM]["rare"],
        "runtime < 15 min": elapsed < 900.0,
    }
    detail = "; ".join(f"{name}={'ok' if passed else 'VIOLATED'}"
                       for name, passed in checks.items())
    _report(8, "ablation orderings mirror the reference directionally",
            all(checks.values()), f"{detail}; {elapsed:.0f}s")


def _write_select_fixture(tmp_path):
    buf = ReplayBuffer(capacity=10_000, gamma=1.0)
    rng = np.random.default_rng(42)
    for eid in range(10):
        length = int(rng.integers(8, 14))
        steps = [(rng.standard_normal(4), int(rng.integers(4)), float(rng.integers(0, 2)),
                  int(rng.integers(3))) for _ in range(length)]
        states, actions, rewards, stages = (np.array(column) for column in zip(*steps))
        buf.append_episode(Episode(id=eid, transitions=EpisodeArrays(
            states, actions, rewards, stages, np.arange(length) == length - 1)))
    from qdreplay.windows import save_jsonl

    buffer_path = tmp_path / "buffer.jsonl"
    save_jsonl(buf, buffer_path)
    return buffer_path


def test_criterion_9_cli_determinism(tmp_path):
    buffer_path = _write_select_fixture(tmp_path)
    select_cfg = tmp_path / "select.cfg"
    select_cfg.write_text("horizon = 5\npool_size = 20\nsubset_size = 4\n")
    ablate_cfg = tmp_path / "ablate.cfg"
    ablate_cfg.write_text(
        "horizon = 5\npool_size = 10\nsubset_size = 2\nrefresh_period = 4\n"
        "batch_size = 8\nepisodes = 4\nwarmup_episodes = 6\npretrain_steps = 10\n"
        "updates_per_episode = 2\neval_every = 2\neval_episodes = 4\n"
        "num_stages = 3\nsteps_per_stage = 4,4,2\naction_count = 4\nt_max = 20\n"
    )

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "qdreplay", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    outputs = {}
    for label in ("a", "b"):
        out = tmp_path / f"select_{label}"
        run(["select", str(buffer_path), "--config", str(select_cfg),
             "--seed", "7", "--out", str(out), "--kernel-dump"])
        outputs[f"select_{label}"] = (
            (out / "selection.json").read_bytes(), (out / "kernel.csv").read_bytes()
        )
    select_ok = outputs["select_a"] == outputs["select_b"]

    for label in ("a", "b"):
        out = tmp_path / f"ablate_{label}"
        run(["ablate", "--config", str(ablate_cfg), "--seed", "1", "--seed", "2",
             "--out", str(out)])
        outputs[f"ablate_{label}"] = (
            (out / "ablation.csv").read_bytes(), (out / "ablation_runs.csv").read_bytes()
        )
    ablate_ok = outputs["ablate_a"] == outputs["ablate_b"]

    payload = json.loads((tmp_path / "select_a" / "selection.json").read_text())
    shape_ok = len(payload["indices"]) == 4
    _report(9, "select and ablate reruns are byte-identical",
            select_ok and ablate_ok and shape_ok)
