from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdreplay import geometry
from qdreplay.geometry import (
    RBFSimilarity,
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
    policy = LinearSoftmaxPolicy(state_dim=2, action_count=3, feature_dim=3, seed=0)
    policy.projection = np.eye(3)
    emb = encode_pool(pool, policy)[0]
    np.testing.assert_allclose(emb, [1.5, -2.0, 4.0])


def test_median_bandwidth_of_three_collinear_points():
    z = np.array([[0.0], [1.0], [3.0]])
    assert median_bandwidth(z) == pytest.approx(2.0)  # distances {1, 2, 3}


def test_median_bandwidth_duplicate_fallback():
    z = np.ones((4, 2))
    assert median_bandwidth(z) == 1.0


def test_copies_of_a_point_are_at_distance_zero_and_bandwidth_one():
    """The Gram form leaves 2.4e-7 between copies of (-3.78, -10.91)."""
    z = np.array([[-3.78, -10.91]] * 3)
    np.testing.assert_array_equal(pairwise_distances(z), 0.0)
    assert median_bandwidth(z) == 1.0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 2 * geometry._ROW_BLOCK + 1), dim=st.integers(1, 16),
       distinct=st.integers(1, 4), scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
def test_equal_embeddings_are_at_distance_exactly_zero(n, dim, distinct, scale, seed):
    """Every pair of equal rows reads 0.0, in and across row blocks, and a
    pool of copies of one point falls back to a bandwidth of 1."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((distinct, dim)) * scale
    z = points[rng.integers(distinct, size=n)]
    equal = (z[:, None, :] == z[None, :, :]).all(axis=2)
    assert np.all(pairwise_distances(z)[equal] == 0.0)
    assert median_bandwidth(np.repeat(points[:1], n, axis=0)) == 1.0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 2 * geometry._ROW_BLOCK + 1), dim=st.integers(1, 16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rows_equal_up_to_a_zeros_sign_are_at_distance_exactly_zero(n, dim, seed):
    """-0.0 == 0.0, so rows that differ only in the signs of their zeros are equal rows."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((3, dim)) * rng.uniform(1e-3, 1e3)
    points[:, rng.random(dim) < 0.5] = 0.0
    points[:, 0] = 0.0
    z = points[rng.integers(3, size=n)]
    z[(z == 0.0) & (rng.random(z.shape) < 0.5)] = -0.0
    equal = (z[:, None, :] == z[None, :, :]).all(axis=2)
    assert np.all(pairwise_distances(z)[equal] == 0.0)


def test_copies_of_a_point_up_to_a_zeros_sign_are_at_distance_zero():
    """Copies of (-3.78, -10.91), which the Gram form leaves 2.4e-7 apart, with a zero
    of either sign appended."""
    z = np.array([[-3.78, -10.91, 0.0], [-3.78, -10.91, -0.0], [-3.78, -10.91, 0.0]])
    np.testing.assert_array_equal(pairwise_distances(z), 0.0)
    assert median_bandwidth(z) == 1.0


def test_median_bandwidth_single_pair():
    z = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert median_bandwidth(z) == pytest.approx(5.0)


def _points(rng, n, dim, distinct, integral):
    """n rows drawn from ``distinct`` points, integer-valued or Gaussian at a random scale."""
    shape = (min(distinct, n), dim)
    points = (rng.integers(-3, 4, size=shape).astype(float) if integral
              else rng.standard_normal(shape) * rng.uniform(1e-3, 1e3))
    return points[rng.integers(len(points), size=n)]


def _row_block_gram(z):
    """The upper part of ``z @ z.T`` by one product per row block, as
    ``pairwise_distances`` makes it."""
    gram = np.zeros((len(z), len(z)))
    for start in range(0, len(z), geometry._ROW_BLOCK):
        stop = start + geometry._ROW_BLOCK
        gram[start:stop, start:] = z[start:stop] @ z[start:].T
    return gram


def _full_matrix_distances(z):
    """The distances as one full-matrix formula: Gram form, clip, root, triu
    plus transpose, then exactly 0 between equal rows."""
    sq = np.sum(z ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * _row_block_gram(z)
    d = np.triu(np.sqrt(np.maximum(d2, 0.0)), k=1)
    d = d + d.T
    d[(z[:, None, :] == z[None, :, :]).all(axis=2)] = 0.0
    return d


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3 * geometry._ROW_BLOCK), dim=st.integers(1, 16),
       distinct=st.integers(1, 200), integral=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_pairwise_distances_in_place_is_the_full_matrix_formula_bit_for_bit(
        n, dim, distinct, integral, seed):
    """From one row to more than two row blocks, with repeated rows, whose
    Gram-form distances need not be exact zeros until they are set to 0."""
    z = _points(np.random.default_rng(seed), n, dim, distinct, integral)
    assert pairwise_distances(z).tobytes() == _full_matrix_distances(z).tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4 * geometry._ROW_BLOCK + 1), dim=st.integers(1, 16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_row_block_gram_is_the_whole_product_to_rounding(n, dim, seed):
    """Each entry of the upper part is a dot product of ``dim`` terms, so the
    row-block product and one ``z @ z.T`` may round it apart by at most
    2 dim eps |z_i| |z_j|, at any N across the block boundaries."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim)) * rng.uniform(1e-3, 1e3)
    norms = np.linalg.norm(z, axis=1)
    bound = 2 * dim * np.finfo(float).eps * np.outer(norms, norms)
    upper = np.triu_indices(n)
    assert np.all(np.abs(_row_block_gram(z) - z @ z.T)[upper] <= bound[upper])


def test_pairwise_distances_peak_is_one_array_and_row_block_temporaries():
    """At N = 1500 the pass allocates the one N x N array and about 1.2 row
    blocks of N floats beside it. A whole-pool product, copied into the array
    block by block, would add a second N x N array."""
    n = 1500
    z = np.random.default_rng(11).standard_normal((n, 16))
    tracemalloc.start()
    try:
        pairwise_distances(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (n * n + 2 * geometry._ROW_BLOCK * n) * 8


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 150), dim=st.integers(1, 4), distinct=st.integers(1, 40),
       integral=st.booleans(), sample_size=st.sampled_from([1, 10, 200, geometry._SAMPLE_SIZE]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_median_bandwidth_is_numpy_median_bit_for_bit(n, dim, distinct, integral, sample_size,
                                                      seed):
    """n (n - 1) / 2 pairs runs over odd and even counts and up to three row
    blocks. Up to the sample size one pass takes every pair; smaller samples
    stride over the pairs, and bracket wide or miss.
    Rows drawn from ``distinct`` points repeat. Integer points have exact
    distances, so tied ones, and exact zeros down to the fallback to 1 for a
    single point."""
    z = _points(np.random.default_rng(seed), n, dim, distinct, integral)
    d = pairwise_distances(z)
    expected = float(np.median(d[np.triu_indices(n, k=1)]))
    expected = expected if expected > 0.0 else 1.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_SAMPLE_SIZE", sample_size)
        assert median_bandwidth(z) == expected
    if integral and distinct == 1:
        assert expected == 1.0


def _count_passes(monkeypatch):
    """Record the (low, high) bracket of every pass ``median_bandwidth`` makes."""
    passes = []
    upper_between = geometry._upper_between

    def spy(z, low, high):
        passes.append((low, high))
        return upper_between(z, low, high)
    monkeypatch.setattr(geometry, "_upper_between", spy)
    return passes


def test_median_bracket_from_a_strided_sample_holds_the_middle_ranks(monkeypatch):
    """At n = 600 the sampled pairs are among every 23rd entry of the flat
    matrix, the first stride from 360,000 / 16,384 up that is coprime to n,
    and the one bracketed pass finds the middle ranks."""
    passes = _count_passes(monkeypatch)
    z = np.random.default_rng(3).standard_normal((600, 16))
    d = pairwise_distances(z)
    assert median_bandwidth(z) == float(np.median(d[np.triu_indices(600, k=1)]))
    assert len(passes) == 1 and -np.inf < passes[0][0] < passes[0][1] < np.inf


def test_median_bracket_miss_falls_back_to_one_full_pass(monkeypatch):
    """A negative margin makes the bracket empty, so a second pass takes every pair."""
    passes = _count_passes(monkeypatch)
    monkeypatch.setattr(geometry, "_SAMPLE_SIZE", 1000)
    monkeypatch.setattr(geometry, "_BRACKET_MARGIN", -10.0)
    z = np.random.default_rng(4).standard_normal((150, 3))
    d = pairwise_distances(z)
    assert median_bandwidth(z) == float(np.median(d[np.triu_indices(150, k=1)]))
    assert len(passes) == 2 and passes[0][0] > passes[0][1]
    assert passes[1] == (-np.inf, np.inf)


def _per_feature_rbf(z, sigma):
    """exp(-d2 / sigma^2), d2 summed one feature at a time in index order, from scratch."""
    d2 = np.zeros((len(z), len(z)))
    for f in range(z.shape[1]):
        d2 += (z[:, None, f] - z[None, :, f]) ** 2
    return np.exp(-d2 / sigma ** 2)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 2 * geometry._ROW_BLOCK + 1), dim=st.integers(1, 16),
       distinct=st.integers(1, 200), integral=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_every_read_of_the_rbf_similarity_has_the_same_bits(n, dim, distinct, integral, seed):
    """Columns, rows, ``np.ix_`` blocks, the diagonal and ``rbf_similarity`` read
    one formula, whichever entries are read together: the per-feature sum.
    S is exactly symmetric with a unit diagonal, and rows drawn from
    ``distinct`` points repeat, a zero's sign aside, at similarity exactly 1."""
    rng = np.random.default_rng(seed)
    z = _points(rng, n, dim, distinct, integral)
    z[(z == 0.0) & (rng.random(z.shape) < 0.5)] = -0.0
    sigma = float(rng.uniform(0.1, 5.0)) * (1.0 + np.abs(z).max())
    similarity = RBFSimilarity(z, sigma)
    s = rbf_similarity(z, sigma)
    assert s.tobytes() == _per_feature_rbf(z, sigma).tobytes()
    every = np.arange(n)
    assert similarity[every[:, None], every].tobytes() == s.tobytes()
    for j in range(n):
        assert similarity[:, j].tobytes() == s[:, j].tobytes()
        assert similarity[j, every].tobytes() == s[j].tobytes()
    assert similarity[every, every].tobytes() == np.ones(n).tobytes()
    for size in (1, max(1, n // 3), n):
        picks = np.sort(rng.choice(n, size=size, replace=False))
        assert similarity[np.ix_(picks, picks)].tobytes() == s[np.ix_(picks, picks)].tobytes()
    assert np.array_equal(s, s.T)
    equal = (z[:, None, :] == z[None, :, :]).all(axis=2)
    assert np.all(s[equal] == 1.0) and np.all((s >= 0.0) & (s <= 1.0))


@pytest.mark.parametrize("embeddings", [
    np.zeros(3), np.zeros((2, 2, 2)), np.zeros((3, 0)),
    np.array([[0.0, 1.0], [math.nan, 0.0]]), np.array([[0.0, math.inf], [1.0, 0.0]]),
], ids=["1-D", "3-D", "no-features", "nan", "inf"])
def test_rbf_similarity_rejects_embeddings_that_are_not_finite_n_by_d(embeddings):
    with pytest.raises(ValueError, match="embeddings must be"):
        RBFSimilarity(embeddings, 1.0)
    with pytest.raises(ValueError, match="embeddings must be"):
        rbf_similarity(embeddings, 1.0)


def test_median_bandwidth_of_one_point_is_one():
    """No pair to take a median of: the fallback, as for a pool of copies."""
    assert median_bandwidth(np.zeros((1, 3))) == 1.0
    assert median_bandwidth(np.ones((1, 2))) == 1.0


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
    # NaN would give NaN off the diagonal, and inf a similarity of all ones.
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"finite and positive, got {sigma}"):
            rbf_similarity(np.zeros((2, 2)), sigma=sigma)


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
