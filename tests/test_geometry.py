from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdreplay.geometry import (
    encode_pool,
    median_bandwidth,
    pairwise_distances,
    rbf_similarity,
)
from qdreplay.policy import LinearSoftmaxPolicy
from qdreplay.windows import Episode, EpisodeArrays, ReplayBuffer


def _pool(states, rewards):
    """One single-step episode per (state, reward), gathered in order as length-1 windows."""
    buf = ReplayBuffer(capacity=100, gamma=1.0)
    for eid, (state, reward) in enumerate(zip(states, rewards)):
        buf.append_episode(Episode(id=eid, transitions=EpisodeArrays(
            np.array([state], dtype=float), np.zeros(1, dtype=np.int64), np.array([reward]),
            np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool))))
    return buf.gather(np.arange(len(rewards)), 1)


def test_identical_windows_identical_embeddings():
    pool = _pool([[1.0, 2.0], [1.0, 2.0]], [0.5, 0.5])
    policy = LinearSoftmaxPolicy(state_dim=2, action_count=3, feature_dim=5, seed=1)
    a, b = encode_pool(pool, policy)
    np.testing.assert_array_equal(a, b)


def test_encode_pool_shape_contract():
    rng = np.random.default_rng(2)
    pool = _pool(rng.standard_normal((7, 3)), rng.random(7))
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=3, feature_dim=6, seed=0)
    embeddings = encode_pool(pool, policy)
    assert embeddings.shape == (7, 6)


def test_identity_encoder_returns_window_features():
    pool = _pool([[1.5, -2.0]], [4.0])
    policy = LinearSoftmaxPolicy(state_dim=2, action_count=3, projection=np.eye(3), seed=0)
    emb = encode_pool(pool, policy)[0]
    np.testing.assert_allclose(emb, [1.5, -2.0, 4.0])


def test_median_bandwidth_of_three_collinear_points():
    z = np.array([[0.0], [1.0], [3.0]])
    assert median_bandwidth(z) == pytest.approx(2.0)  # distances {1, 2, 3}


def test_median_bandwidth_duplicate_fallback():
    z = np.ones((4, 2))
    assert median_bandwidth(z) == 1.0


def test_median_bandwidth_single_pair():
    z = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert median_bandwidth(z) == pytest.approx(5.0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 40), dim=st.integers(1, 4), distinct=st.integers(1, 40),
       integral=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_median_bandwidth_is_numpy_median_bit_for_bit(n, dim, distinct, integral, seed):
    """n (n - 1) / 2 pairs runs over odd and even counts; rows drawn from
    ``distinct`` points repeat. Integer points have exact distances, so tied
    ones, and exact zeros down to the fallback to 1 for a single point."""
    rng = np.random.default_rng(seed)
    shape = (min(distinct, n), dim)
    points = (rng.integers(-3, 4, size=shape).astype(float) if integral
              else rng.standard_normal(shape) * rng.uniform(1e-3, 1e3))
    z = points[rng.integers(len(points), size=n)]
    d = pairwise_distances(z)
    expected = float(np.median(d[np.triu_indices(n, k=1)]))
    expected = expected if expected > 0.0 else 1.0
    assert median_bandwidth(z) == expected
    assert median_bandwidth(z, distances=d) == expected
    np.testing.assert_array_equal(d, pairwise_distances(z))  # read, not written
    if integral and len(points) == 1:
        assert expected == 1.0


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_rbf_similarity_from_given_distances_is_identical(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 3))
    sigma = float(rng.uniform(0.1, 5.0))
    d = pairwise_distances(z)
    np.testing.assert_array_equal(rbf_similarity(z, sigma, distances=d),
                                  rbf_similarity(z, sigma))
    np.testing.assert_array_equal(d, pairwise_distances(z))


def test_median_bandwidth_needs_two_points():
    with pytest.raises(ValueError):
        median_bandwidth(np.zeros((1, 3)))


def test_rbf_unit_similarity_at_zero_distance():
    s = rbf_similarity(np.array([[1.0, 1.0], [1.0, 1.0]]), sigma=2.0)
    assert s[0, 1] == pytest.approx(1.0)


def test_rbf_analytic_point():
    z = np.array([[0.0], [3.0]])
    s = rbf_similarity(z, sigma=3.0)  # squared distance equals sigma^2
    assert s[0, 1] == pytest.approx(math.exp(-1), abs=1e-12)


def test_rbf_collinear_example():
    z = np.array([[0.0], [1.0], [2.0]])
    s = rbf_similarity(z, sigma=1.0)
    assert s[0, 2] == pytest.approx(math.exp(-4), rel=1e-12)


def test_rbf_requires_positive_bandwidth():
    with pytest.raises(ValueError):
        rbf_similarity(np.zeros((2, 2)), sigma=0.0)


def test_rbf_matrix_invariants():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((30, 4))
    s = rbf_similarity(z, median_bandwidth(z))
    assert np.array_equal(s, s.T)
    np.testing.assert_array_equal(np.diag(s), 1.0)
    assert np.all(s > 0) and np.all(s <= 1)


def test_rbf_positive_semidefinite_random_sets():
    rng = np.random.default_rng(8)
    for n, d in [(8, 2), (32, 5), (64, 10)]:
        z = rng.standard_normal((n, d))
        s = rbf_similarity(z, median_bandwidth(z))
        assert np.linalg.eigvalsh(s).min() >= -1e-8


def test_rbf_invariant_to_rigid_transform():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((12, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = z @ q.T + rng.standard_normal(3)
    sigma = median_bandwidth(z)
    np.testing.assert_allclose(
        rbf_similarity(z, sigma),
        rbf_similarity(moved, sigma),
        atol=1e-9,
    )


def test_rbf_monotone_in_distance():
    z = np.array([[0.0], [0.5], [2.0]])
    s = rbf_similarity(z, sigma=1.0)
    assert s[0, 1] > s[0, 2]


def test_bandwidth_scales_linearly_and_similarity_is_scale_free():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((15, 4))
    for c in (0.1, 3.0, 42.0):
        assert median_bandwidth(c * z) == pytest.approx(c * median_bandwidth(z), rel=1e-12)
        np.testing.assert_allclose(
            rbf_similarity(c * z, median_bandwidth(c * z)),
            rbf_similarity(z, median_bandwidth(z)),
            atol=1e-10,
        )
