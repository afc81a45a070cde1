from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdreplay.replay import (
    WeightMode,
    inclusion_probability,
    mixed_sample,
    normalize_weights,
)
from replay_estimate import estimate_uniform_mean


def mixture_weights(ids, selection, window_count, eta) -> np.ndarray:
    """(1/D) / inclusion_probability(id in Y, |Y|, D, eta) for each id, one id at a time."""
    return np.array([(1.0 / window_count) / inclusion_probability(
        i in set(selection), len(selection), window_count, eta) for i in ids])


def stream_draws(selection, window_count, batch_size, eta, seed):
    """The selection's floor(eta * B) draws, then the draws over all windows, from one seed."""
    rng = np.random.default_rng(seed)
    n_selected = math.floor(eta * batch_size)
    picks = np.asarray(selection, dtype=np.int64)[
        rng.integers(0, len(selection), size=n_selected)] if n_selected else []
    return list(picks), list(rng.integers(0, window_count, size=batch_size - n_selected))


def test_eta_zero_is_plain_uniform_replay():
    ids, weights = mixed_sample([], window_count=30, batch_size=12, eta=0.0, seed=0)
    assert stream_draws([], 30, 12, 0.0, seed=0) == ([], ids.tolist())
    np.testing.assert_array_equal(weights, 1.0)
    assert weights.tobytes() == mixture_weights(ids, [], 30, 0.0).tobytes()
    assert inclusion_probability(False, 1, 30, 0.0) == pytest.approx(1 / 30)


def test_worked_probability_example():
    selection = list(range(10))
    ids, weights = mixed_sample(selection, window_count=100, batch_size=20, eta=0.5, seed=1)
    assert weights.tobytes() == mixture_weights(ids, selection, 100, 0.5).tobytes()
    assert inclusion_probability(True, 10, 100, 0.5) == pytest.approx(0.055)
    assert inclusion_probability(False, 10, 100, 0.5) == pytest.approx(0.005)
    for idx, w in zip(ids, weights):
        if idx in set(selection):
            assert w == pytest.approx(0.01 / 0.055)
        else:
            assert w == pytest.approx(2.0)


def test_selection_equal_to_pool_gives_unit_weights():
    ids, weights = mixed_sample(list(range(8)), window_count=8, batch_size=16, eta=1.0, seed=2)
    assert stream_draws(range(8), 8, 16, 1.0, seed=2) == (ids.tolist(), [])  # all from Y
    np.testing.assert_allclose(weights, 1.0)


def test_sub_batch_sizes_follow_floor_rule():
    selection = [10, 20, 30, 40, 41]
    ids, _ = mixed_sample(selection, window_count=50, batch_size=10, eta=0.7, seed=3)
    picks, rest = stream_draws(selection, 50, 10, 0.7, seed=3)
    assert len(picks) == math.floor(0.7 * 10) == 7
    assert len(rest) == 3
    assert ids.tolist() == picks + rest  # the selection's draws first


def test_probabilities_sum_to_one_over_pool():
    selection = [2, 5, 9]
    window_count = 40
    eta = 0.65
    total = sum(
        inclusion_probability(i in set(selection), len(selection), window_count, eta)
        for i in range(window_count)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_global_only_weight_bound():
    ids, weights = mixed_sample([0, 1], window_count=25, batch_size=40, eta=0.6, seed=4)
    for idx, w in zip(ids, weights):
        if idx not in {0, 1}:
            assert w == pytest.approx(1 / (1 - 0.6))


def test_source_flag_records_stream_but_probability_is_mixture():
    # a selected window drawn through the global stream keeps the mixture p
    selection = [0]
    ids, weights = mixed_sample(selection, window_count=2, batch_size=400, eta=0.5, seed=5)
    n_selected = math.floor(0.5 * 400)
    global_hits = [w for idx, w in zip(ids[n_selected:], weights[n_selected:]) if idx == 0]
    assert global_hits  # with 200 global draws from 2 windows this must occur
    expected_p = 0.5 / 1 + 0.5 / 2
    assert inclusion_probability(True, 1, 2, 0.5) == pytest.approx(expected_p)
    for w in global_hits:
        assert w == (1 / 2) / inclusion_probability(True, 1, 2, 0.5)
        assert w == pytest.approx((1 / 2) / expected_p)


def test_empty_selection_with_positive_eta_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        mixed_sample([], window_count=10, batch_size=4, eta=0.5, seed=0)


def test_empty_pool_rejected():
    with pytest.raises(ValueError, match="window_count must be positive"):
        mixed_sample([0], window_count=0, batch_size=4, eta=0.5, seed=0)


def test_sampling_deterministic_per_seed():
    a_ids, a_weights = mixed_sample([1, 2], window_count=9, batch_size=6, eta=0.5, seed=11)
    b_ids, b_weights = mixed_sample([1, 2], window_count=9, batch_size=6, eta=0.5, seed=11)
    np.testing.assert_array_equal(a_ids, b_ids)
    np.testing.assert_array_equal(a_weights, b_weights)


def test_normalize_mean_one_uniform():
    weights = normalize_weights(np.array([2.0, 2.0]), WeightMode.MEAN_ONE)
    np.testing.assert_allclose(weights, [1.0, 1.0])


def test_normalize_mean_one_rescale():
    weights = normalize_weights(np.array([1.0, 3.0]), WeightMode.MEAN_ONE)
    np.testing.assert_allclose(weights, [0.5, 1.5])


def test_normalize_raw_is_identity():
    _, weights = mixed_sample([0], window_count=5, batch_size=6, eta=0.5, seed=1)
    np.testing.assert_array_equal(normalize_weights(weights, WeightMode.RAW), weights)


def test_mean_one_preserves_loss_argmin():
    rng = np.random.default_rng(6)
    ids, weights = mixed_sample([0, 1], window_count=20, batch_size=10, eta=0.6, seed=7)
    candidates = [rng.random(len(ids)) for _ in range(5)]
    raw = normalize_weights(weights, WeightMode.RAW)
    scaled = normalize_weights(weights, WeightMode.MEAN_ONE)
    raw_best = min(range(5), key=lambda i: np.dot(raw, candidates[i]))
    scaled_best = min(range(5), key=lambda i: np.dot(scaled, candidates[i]))
    assert raw_best == scaled_best


def test_raw_weights_debias_to_uniform_mean():
    # Monte Carlo check of the central debiasing property on a small pool.
    rng = np.random.default_rng(8)
    pool_size, selection = 50, list(range(5))
    f = rng.random(pool_size)
    eta, batch_size, trials = 0.8, 10, 4000
    estimate = estimate_uniform_mean(f, selection, pool_size, batch_size, eta, trials, seed=9)
    truth = f.mean()

    in_y = np.zeros(pool_size, bool)
    in_y[selection] = True
    p = np.where(in_y, eta / len(selection) + (1 - eta) / pool_size, (1 - eta) / pool_size)
    x = (1 / pool_size) / p * f
    var_sel = np.var(x[in_y], ddof=0)
    var_glob = np.var(x, ddof=0)
    se = math.sqrt((eta * var_sel + (1 - eta) * var_glob) / (batch_size * trials))
    assert abs(estimate - truth) <= 4 * se


# Exact outputs of the per-entry implementation (a list of (id, stream) tuples
# and one probability per entry), taken before mixed_sample returned arrays:
# (selection, window_count, batch_size, eta, seed) -> ids, whether each
# position is a selection draw, each id's mixture probability, RAW weights,
# MEAN_ONE weights.
PINNED_BATCHES = [
    # eta = 0: plain uniform replay
    (([], 7, 5, 0.0, 21),
     [2, 5, 2, 4, 3], [False] * 5, [0.14285714285714285] * 5, [1.0] * 5, [1.0] * 5),
    # eta = 1: every draw from the selection
    (([3, 5, 8], 10, 6, 1.0, 22),
     [8, 5, 5, 3, 8, 3], [True] * 6, [0.3333333333333333] * 6, [0.30000000000000004] * 6,
     [1.0] * 6),
    # windows of Y drawn through the global stream keep the mixture probability
    (([0, 2], 4, 8, 0.5, 23),
     [0, 2, 0, 2, 1, 0, 2, 0], [True] * 4 + [False] * 4,
     [0.375] * 4 + [0.125] + [0.375] * 3,
     [0.6666666666666666] * 4 + [2.0] + [0.6666666666666666] * 3,
     [0.8] * 4 + [2.4000000000000004] + [0.8] * 3),
    # eta * B = 4.9: four selection draws, and a global draw that hits Y
    (([1, 4, 6], 9, 7, 0.7, 24),
     [4, 1, 6, 4, 7, 5, 1], [True] * 4 + [False] * 3,
     [0.26666666666666666] * 4 + [0.03333333333333334] * 2 + [0.26666666666666666],
     [0.41666666666666663] * 4 + [3.3333333333333326] * 2 + [0.41666666666666663],
     [0.33333333333333337] * 4 + [2.6666666666666665] * 2 + [0.33333333333333337]),
    # eta * B = 1.75, with a window listed twice in Y
    (([2, 2, 11], 12, 5, 0.35, 25),
     [2, 1, 10, 0, 2], [True] + [False] * 4,
     [0.17083333333333334] + [0.05416666666666667] * 3 + [0.17083333333333334],
     [0.4878048780487805] + [1.5384615384615383] * 3 + [0.4878048780487805],
     [0.436241610738255] + [1.3758389261744965] * 3 + [0.436241610738255]),
    # eta * B = 4.05, and (1 - eta) / N rounds otherwise than (1 - eta) * (1 / N)
    (([0, 3, 5, 6], 7, 9, 0.45, 26),
     [6, 3, 5, 0, 2, 0, 2, 4, 5], [True] * 4 + [False] * 5,
     [0.1910714285714286] * 4 + [0.07857142857142858, 0.1910714285714286]
     + [0.07857142857142858] * 2 + [0.1910714285714286],
     [0.747663551401869] * 4 + [1.818181818181818, 0.747663551401869]
     + [1.818181818181818] * 2 + [0.747663551401869],
     [0.676923076923077] * 4 + [1.6461538461538463, 0.676923076923077]
     + [1.6461538461538463] * 2 + [0.676923076923077]),
]


@pytest.mark.parametrize("args, ids, from_selection, probabilities, weights, mean_one",
                         PINNED_BATCHES)
def test_mixed_sample_is_pinned(args, ids, from_selection, probabilities, weights, mean_one):
    selection, window_count, batch_size, eta, _ = args
    got_ids, got_weights = mixed_sample(*args)
    assert got_ids.dtype == np.int64
    assert got_ids.tolist() == ids
    picks, rest = stream_draws(*args)  # the positions from_selection flags are the picks
    assert from_selection == [True] * len(picks) + [False] * len(rest)
    assert ids == picks + rest
    assert [inclusion_probability(i in selection, len(selection), window_count, eta)
            for i in ids] == probabilities
    assert got_weights.tolist() == weights
    assert got_weights.tobytes() == mixture_weights(ids, selection, window_count, eta).tobytes()
    assert normalize_weights(got_weights, WeightMode.MEAN_ONE).tolist() == mean_one


# Weights with NaN, both infinities, both zeros, negatives and empty arrays.
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1.0])
_WEIGHTS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                   max_side=6),
                      elements=st.floats(-1e6, 1e6) | _SPECIAL)


def _error(call) -> str | None:
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(weights=_WEIGHTS, mode=st.sampled_from(WeightMode))
def test_normalize_weights_check_matches_the_mask_expression(weights, mode):
    old_rejects = (weights <= 0).any()  # the check as it was: a mask, then any
    expected = "batch weights must be positive" if old_rejects else None
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf weights are let through
        assert _error(lambda: normalize_weights(weights, mode)) == expected
        if not old_rejects and mode is WeightMode.MEAN_ONE and weights.size:
            old = weights / weights.mean()
            assert normalize_weights(weights, mode).tobytes() == old.tobytes()


@settings(max_examples=300, deadline=None)
@given(selection=hnp.arrays(np.int64, st.integers(0, 6), elements=st.integers(-4, 12)),
       window_count=st.integers(1, 10))
def test_mixed_sample_selection_check_matches_the_mask_expression(selection, window_count):
    old_rejects = ((selection < 0) | (selection >= window_count)).any()
    expected = "selection indices must lie inside the pool" if old_rejects else None
    eta = 0.5 if selection.size else 0.0
    assert _error(lambda: mixed_sample(selection, window_count, 4, eta, 0)) == expected
