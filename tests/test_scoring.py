from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdreplay.geometry import encode_pool
from qdreplay.policy import LinearSoftmaxPolicy
from qdreplay.scoring import (
    Q_MIN,
    QualityReport,
    QualityWeights,
    composite_quality,
    normalize_uncertainty,
    predictive_uncertainty,
    rtg_quantiles,
    stage_coverage,
)
from qdreplay.windows import Episode, EpisodeArrays, ReplayBuffer
from scoring_oracle import rtg_quantile


def test_quality_weights_must_sum_to_one():
    QualityWeights(0.4, 0.3, 0.3)
    with pytest.raises(ValueError, match="sum to 1"):
        QualityWeights(0.5, 0.3, 0.3)
    with pytest.raises(ValueError, match=">= 0"):
        QualityWeights(1.2, -0.1, -0.1)


def test_quantile_mid_rank_example():
    assert rtg_quantiles([1, 2, 3, 4])[2] == pytest.approx(0.625)


def test_quantile_pure_ties_give_half():
    for i in range(4):
        assert rtg_quantiles([7, 7, 7, 7])[i] == pytest.approx(0.5)


def test_quantile_two_point_pool():
    assert rtg_quantiles([0, 100])[1] == pytest.approx(0.75)


def test_quantile_invariant_to_monotone_transform():
    rng = np.random.default_rng(0)
    returns = rng.standard_normal(25)
    base = rtg_quantiles(returns)
    for transform in (lambda g: 3 * g + 5, np.exp, lambda g: g ** 3):
        np.testing.assert_allclose(rtg_quantiles(transform(returns)), base)


def test_quantile_mean_is_half_without_ties():
    rng = np.random.default_rng(1)
    for n in (3, 10, 37):
        returns = rng.permutation(n).astype(float)
        mean = rtg_quantiles(returns).mean()
        assert abs(mean - 0.5) <= 1 / (2 * n)


def _one_window(passes):
    """M per-pass logit means of one window, stacked as (M, N, A) with N = 1."""
    return np.stack(passes)[:, None, :]


def test_uncertainty_zero_for_identical_passes():
    assert predictive_uncertainty(_one_window([np.array([1.0, 2.0])] * 3)) == [0.0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.5]), st.floats(-1e6, 1e6)),
                min_size=1, max_size=60))
def test_rtg_quantiles_match_per_entry_quantile(returns):
    expected = np.array([rtg_quantile(returns, i) for i in range(len(returns))])
    np.testing.assert_array_equal(rtg_quantiles(returns), expected)


def test_uncertainty_two_pass_example():
    value = predictive_uncertainty(_one_window([np.array([0.0, 0.0]), np.array([2.0, 0.0])]))
    assert value == pytest.approx([2.0])


def test_uncertainty_scalar_passes_unbiased_divisor():
    value = predictive_uncertainty(_one_window([np.array([v]) for v in [0.0, 1.0, 2.0, 3.0]]))
    assert value == pytest.approx([5 / 3])


def test_uncertainty_requires_two_passes():
    with pytest.raises(ValueError, match="insufficient stochastic passes"):
        predictive_uncertainty(_one_window([np.array([1.0])]))


def test_uncertainty_invariant_to_pass_order_and_constant_shift():
    rng = np.random.default_rng(3)
    passes = [rng.standard_normal(4) for _ in range(6)]
    base = predictive_uncertainty(_one_window(passes))
    shuffled = [passes[i] for i in rng.permutation(6)]
    assert predictive_uncertainty(_one_window(shuffled)) == pytest.approx(base, rel=1e-12)
    shifted = [p + np.array([5.0, -2.0, 0.5, 9.0]) for p in passes]
    assert predictive_uncertainty(_one_window(shifted)) == pytest.approx(base, rel=1e-9)


def test_normalize_min_max():
    np.testing.assert_allclose(normalize_uncertainty([0, 5, 10]), [0.0, 0.5, 1.0])


def test_normalize_degenerate_pools():
    np.testing.assert_allclose(normalize_uncertainty([3, 3, 3]), [0.5, 0.5, 0.5])
    np.testing.assert_allclose(normalize_uncertainty([7]), [0.5])


def test_stage_coverage_eight_two_split():
    labels = [0] * 8 + [1] * 2
    scores = stage_coverage(labels, smoothing_alpha=0.0)
    np.testing.assert_allclose(scores[:8], 0.0)
    np.testing.assert_allclose(scores[8:], 0.75)


def test_stage_coverage_single_stage_is_zero():
    np.testing.assert_allclose(stage_coverage([4] * 6), 0.0)


def test_stage_coverage_smoothed_counts():
    labels = [0] * 8 + [1] * 2
    scores = stage_coverage(labels, smoothing_alpha=1.0)
    np.testing.assert_allclose(scores[8:], 1 - 3 / 9)


def test_stage_coverage_monotone_in_count():
    rng = np.random.default_rng(5)
    labels = list(rng.integers(0, 4, size=50))
    scores = stage_coverage(labels)
    counts = {c: labels.count(c) for c in set(labels)}
    per_stage = {c: scores[labels.index(c)] for c in counts}
    for a in counts:
        for b in counts:
            if counts[a] < counts[b]:
                assert per_stage[a] >= per_stage[b]


def _pool_from_rewards(rewards_per_window, stages, gamma=0.9, dim=2):
    """One single-window episode per reward sequence, all of one length, as a pool."""
    buf = ReplayBuffer(capacity=1000, gamma=gamma)
    for eid, (rewards, stage) in enumerate(zip(rewards_per_window, stages)):
        n = len(rewards)
        buf.append_episode(Episode(id=eid, transitions=EpisodeArrays(
            np.zeros((n, dim)), np.zeros(n, dtype=np.int64), np.asarray(rewards, dtype=float),
            np.full(n, stage), np.arange(n) == n - 1)))
    return buf.gather(np.arange(len(stages)), len(rewards_per_window[0]))


def _deterministic_policy(dim=2, dropout=0.0):
    return LinearSoftmaxPolicy(state_dim=dim, action_count=3, feature_dim=4,
                               dropout_rate=dropout, seed=0)


def test_composite_reduces_to_quantile_with_alpha_one():
    pool = _pool_from_rewards([[1.0], [2.0]], stages=[0, 0], gamma=1.0)
    report = composite_quality(pool, QualityWeights(1, 0, 0), _deterministic_policy(),
                               passes=2, gamma=1.0, seed=0)
    np.testing.assert_allclose(report.composite, [0.25, 0.75])


def test_composite_floor_when_coverage_only_and_single_stage():
    pool = _pool_from_rewards([[1.0], [2.0], [0.5]], stages=[1, 1, 1], gamma=1.0)
    report = composite_quality(pool, QualityWeights(0, 0, 1), _deterministic_policy(),
                               passes=2, gamma=1.0, seed=0)
    np.testing.assert_allclose(report.composite, Q_MIN)


def test_composite_equal_components_give_half():
    # equal returns -> quantile 0.5; zero dropout -> equal uncertainties -> 0.5;
    # the minority stage label scores coverage 0.5 under a 2:1 split
    pool = _pool_from_rewards([[1.0], [1.0], [1.0]], stages=[0, 0, 1], gamma=1.0)
    report = composite_quality(pool, QualityWeights(1 / 3, 1 / 3, 1 / 3),
                               _deterministic_policy(), passes=3, gamma=1.0, seed=0)
    assert report.coverage[2] == pytest.approx(0.5)
    assert report.composite[2] == pytest.approx(0.5)


def test_composite_is_convex_combination_when_unfloored():
    rng = np.random.default_rng(9)
    pool = _pool_from_rewards(
        [list(rng.random(3)) for _ in range(12)],
        stages=list(rng.integers(0, 3, size=12)),
    )
    report = composite_quality(pool, QualityWeights(0.4, 0.3, 0.3),
                               _deterministic_policy(dropout=0.4), passes=5, gamma=0.9, seed=4)
    components = np.stack([report.rtg_quantile, report.uncertainty_norm, report.coverage])
    unfloored = report.composite > Q_MIN
    assert np.all(report.composite[unfloored] <= components.max(axis=0)[unfloored] + 1e-12)
    assert np.all(report.composite[unfloored] >= components.min(axis=0)[unfloored] - 1e-12)
    assert np.all(report.composite > 0)
    assert np.all(report.composite <= 1)


def test_composite_deterministic_for_seed():
    rng = np.random.default_rng(10)
    pool = _pool_from_rewards(
        [list(rng.random(3)) for _ in range(6)],
        stages=list(rng.integers(0, 2, size=6)),
    )
    policy = _deterministic_policy(dropout=0.5)
    a = composite_quality(pool, QualityWeights(0.4, 0.3, 0.3), policy, passes=4, gamma=0.9, seed=7)
    b = composite_quality(pool, QualityWeights(0.4, 0.3, 0.3), policy, passes=4, gamma=0.9, seed=7)
    np.testing.assert_array_equal(a.composite, b.composite)
    np.testing.assert_array_equal(a.uncertainty_raw, b.uncertainty_raw)


def _random_pool(count, horizon, seed, dim=3):
    """``count`` windows from random episodes with sparse 0/1 rewards, so returns tie."""
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity=100_000, gamma=0.95)
    for eid in range(max(count // 4, 2)):
        length = int(rng.integers(horizon, horizon + 30))
        steps = [(rng.standard_normal(dim), int(rng.integers(2)), float(rng.random() < 0.2),
                  int(rng.integers(4))) for _ in range(length)]
        states, actions, rewards, stages = (np.array(column) for column in zip(*steps))
        buf.append_episode(Episode(id=eid, transitions=EpisodeArrays(
            states, actions, rewards, stages, np.arange(length) == length - 1)))
    return buf.sample_candidate_pool(count, horizon, rng)


def _per_window_scores(pool, weights, policy, passes, gamma, seed, smoothing_alpha):
    """``encode_pool`` and ``composite_quality`` as one model call per window and pass.

    This is the loop the batched scoring replaced, kept as the reference.
    """
    windows = [pool[b] for b in range(len(pool))]
    step_features = [np.hstack([w.states, w.rtg[:, None]]) @ policy.projection.T
                     for w in windows]
    embeddings = np.stack([feats.mean(axis=0) for feats in step_features])
    returns = np.array([float(np.dot(gamma ** np.arange(w.horizon), w.rewards)) for w in windows])
    rtg_q = np.array([rtg_quantile(returns, i) for i in range(len(pool))])
    raw = []
    for w in windows:
        predictions = []
        for m in range(1, passes + 1):
            feats = np.hstack([w.states, w.rtg[:, None]]) @ policy.projection.T
            if policy.dropout_rate > 0.0:
                feats = feats * policy._dropout_mask((seed, m))
            predictions.append((feats @ policy.weights).mean(axis=0))
        stack = np.stack(predictions)
        centered = stack - stack.mean(axis=0)
        raw.append(float(((centered ** 2).sum(axis=0) / (passes - 1)).sum()))
    raw = np.array(raw)
    u_norm = normalize_uncertainty(raw)
    rho = stage_coverage([np.bincount(stages).argmax() for stages in pool.stages],
                         smoothing_alpha)
    composite = weights.alpha * rtg_q + weights.beta * u_norm + weights.zeta * rho
    return embeddings, QualityReport(rtg_q, raw, u_norm, rho, np.maximum(composite, Q_MIN))


@pytest.mark.parametrize("count, horizon, actions, dropout, exact", [
    (40, 8, 6, 0.2, True), (400, 8, 6, 0.2, True), (60, 2, 4, 0.5, True),
    (50, 5, 6, 0.0, True), (60, 1, 6, 0.5, False), (60, 3, 3, 0.5, False),
])
def test_batched_scoring_matches_per_window_loop(count, horizon, actions, dropout, exact):
    # Bit for bit at H >= 2 with at least 4 actions, which covers the loop's
    # shapes (H = 8, 6 actions). A one-step window or a 2-3 column logit
    # product takes another BLAS kernel per window, which rounds the same
    # dot products differently, so those shapes agree to a few ulps.
    pool = _random_pool(count, horizon, seed=count + horizon)
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=actions, dropout_rate=dropout,
                                 seed=count)
    weights = QualityWeights(0.4, 0.3, 0.3)
    embeddings, expected = _per_window_scores(pool, weights, policy, passes=5, gamma=0.95,
                                              seed=17, smoothing_alpha=1.0)
    report = composite_quality(pool, weights, policy, passes=5, gamma=0.95, seed=17,
                               smoothing_alpha=1.0)
    pairs = [("embeddings", encode_pool(pool, policy), embeddings)] + [
        (field.name, getattr(report, field.name), getattr(expected, field.name))
        for field in fields(QualityReport)]
    for name, actual, desired in pairs:
        if exact:
            np.testing.assert_array_equal(actual, desired, err_msg=name)
        else:
            np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-14, err_msg=name)
