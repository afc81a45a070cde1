from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdreplay.geometry import median_bandwidth, rbf_similarity
from qdreplay.kernels import (
    _esp_table,
    build_joint_kernel,
    exhaustive_map,
    fast_greedy_map,
    greedy_map,
    kdpp_sample,
    kdpp_subset_probability,
    log_det,
)


def random_similarity(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, max(2, n // 4)))
    return rbf_similarity(z, median_bandwidth(z))


def random_psd_kernel(n: int, rng: np.random.Generator, eig_min=0.2, eig_max=5.0) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigvals = rng.uniform(eig_min, eig_max, size=n)
    kernel = (q * eigvals) @ q.T
    return (kernel + kernel.T) / 2.0


def as_joint(kernel: np.ndarray):
    """A plain L as ``fast_greedy_map`` takes it: unit quality and lam 0 leave L's bits."""
    return build_joint_kernel(kernel, np.ones(len(kernel)), 0.0)


# ------------------------------------------------------------------ joint kernel

def test_identity_inputs_give_identity_kernel():
    kernel = build_joint_kernel(np.eye(2), [1.0, 1.0], lam=0.0)
    np.testing.assert_array_equal(kernel.values, np.eye(2))


def test_offdiag_geometric_mean_example():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    kernel = build_joint_kernel(s, [4.0, 1.0], lam=0.0)
    assert kernel.values[0, 1] == pytest.approx(1.0)


def test_offdiag_reconstruction_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 33))
        s = random_similarity(n, rng)
        q = rng.uniform(1e-4, 1.0, size=n)
        lam = float(rng.uniform(0, 0.1))
        kernel = build_joint_kernel(s, q, lam).values
        root = np.sqrt(q)
        for i in range(n):
            for j in range(n):
                expected = (root[i] * s[i, j]) * root[j] + (lam if i == j else 0.0)
                assert kernel[i, j] == expected


def test_kernel_spectrum_floor():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        s = random_similarity(n, rng)
        q = rng.uniform(1e-4, 1.0, size=n)
        lam = float(rng.uniform(1e-4, 0.5))
        kernel = build_joint_kernel(s, q, lam)
        assert np.linalg.eigvalsh(kernel.values).min() >= lam - 1e-8


def test_vanishing_quality_silences_row():
    s = random_similarity(5, np.random.default_rng(2))
    q = np.array([1e-12, 0.5, 0.5, 0.5, 0.5])
    kernel = build_joint_kernel(s, q, lam=0.25).values
    off = kernel[0].copy()
    off[0] -= 0.25 + q[0]  # remove diagonal terms
    assert np.max(np.abs(off[1:])) < 1e-5


def test_kernel_input_validation():
    s = np.eye(3)
    with pytest.raises(ValueError, match="positive"):
        build_joint_kernel(s, [1.0, 0.0, 1.0], lam=0.0)
    with pytest.raises(ValueError, match="lambda"):
        build_joint_kernel(s, [1.0, 1.0, 1.0], lam=-0.1)
    with pytest.raises(ValueError, match="length"):
        build_joint_kernel(s, [1.0, 1.0], lam=0.0)


# ---------------------------------------------------------------------- log det

def test_log_det_conventions():
    assert log_det(np.diag([2.0, 3.0]), []) == 0.0
    assert log_det(np.diag([2.0, 3.0]), [0, 1]) == pytest.approx(math.log(6.0))


def test_log_det_singular_sentinel():
    dup = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert log_det(dup, [0, 1]) == -math.inf
    # LAPACK factors this one, but its second squared pivot is below CHOL_EPS.
    assert log_det(np.diag([1.0, 1e-13]), [0, 1]) == -math.inf
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert log_det(indefinite, [0, 1]) == -math.inf


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), smallest=st.floats(1e-6, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_log_det_matches_slogdet_oracle(n, smallest, seed, data):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigvals = np.append(rng.uniform(smallest, 5.0, size=n - 1), smallest)
    kernel = (q * eigvals) @ q.T
    kernel = (kernel + kernel.T) / 2.0
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    sign, expected = np.linalg.slogdet(kernel[np.ix_(subset, subset)])
    assert sign > 0
    assert log_det(kernel, subset) == pytest.approx(expected, rel=1e-9)


def test_log_det_volume_interpretation():
    # with L = B^T B, det(L_Y) is the squared volume of the chosen columns of B
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 11))
        kernel = random_psd_kernel(n, rng)
        eigvals, eigvecs = np.linalg.eigh(kernel)
        b = (eigvecs * np.sqrt(np.maximum(eigvals, 0))).T  # L == b.T @ b
        size = int(rng.integers(1, n + 1))
        subset = list(rng.choice(n, size=size, replace=False))
        gram = b[:, subset].T @ b[:, subset]
        sign, expected = np.linalg.slogdet(gram)
        assert log_det(kernel, subset) == pytest.approx(expected, abs=1e-6)


# ----------------------------------------------------------------------- greedy

def test_greedy_diagonal_example():
    result = greedy_map(np.diag([3.0, 1.0, 2.0]), 2)
    assert result.indices == [0, 2]
    assert result.logdet == pytest.approx(math.log(6.0))
    # brute force over the three 2-subsets confirms the optimum
    best = max(itertools.combinations(range(3), 2),
               key=lambda s: log_det(np.diag([3.0, 1.0, 2.0]), s))
    assert sorted(result.indices) == list(best)


def test_greedy_identity_ties_break_low():
    result = greedy_map(np.eye(4), 2)
    assert result.indices == [0, 1]
    assert result.logdet == pytest.approx(0.0)


def test_greedy_matches_top_diagonal_on_diagonal_kernels():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 16))
        diag = rng.uniform(0.5, 9.0, size=n)
        k = int(rng.integers(1, n + 1))
        result = greedy_map(np.diag(diag), k)
        expected = sorted(np.argsort(-diag, kind="stable")[:k])
        assert sorted(result.indices) == expected


def test_greedy_telescoping_gains():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(4, 24))
        kernel = random_psd_kernel(n, rng)
        k = int(rng.integers(1, min(n, 8) + 1))
        result = greedy_map(kernel, k)
        assert len(result.indices) == k
        assert result.logdet == pytest.approx(sum(result.gains), abs=1e-12)
        assert result.logdet == pytest.approx(log_det(kernel, result.indices), abs=1e-6)


def test_greedy_submodular_bound_against_oracle():
    rng = np.random.default_rng(7)
    ratio = 1 - 1 / math.e
    for _ in range(30):
        n = int(rng.integers(4, 13))
        kernel = random_psd_kernel(n, rng, eig_min=1.0, eig_max=6.0)
        k = int(rng.integers(1, 5))
        greedy = greedy_map(kernel, k)
        oracle = exhaustive_map(kernel, k)
        assert greedy.logdet >= ratio * oracle.logdet - 1e-9
        assert oracle.logdet >= greedy.logdet - 1e-9


def test_greedy_early_stop_on_rank_deficient_kernel():
    v = np.array([[1.0, 2.0]])
    kernel = v.T @ v  # rank one
    result = greedy_map(kernel, 2)
    assert result.indices == [1]  # larger diagonal wins, nothing left after
    assert len(result.gains) == 1


def test_greedy_k_validation():
    for select, kernel in ((greedy_map, np.eye(3)), (fast_greedy_map, as_joint(np.eye(3)))):
        with pytest.raises(ValueError):
            select(kernel, 0)
        with pytest.raises(ValueError):
            select(kernel, 4)


# ------------------------------------------------------------------ fast greedy

KERNEL_SHAPES = ["full_rank", "low_rank", "tied_diagonal", "identity", "joint"]


def shaped_kernel(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A PSD kernel exercising one path of greedy MAP.

    low_rank stops early once its rank is used up, tied_diagonal and identity
    tie on the diagonal, and joint is ``build_joint_kernel`` output, whose
    rounding leaves it not exactly symmetric.
    """
    if shape == "full_rank":
        return random_psd_kernel(n, rng)
    if shape == "low_rank":
        b = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        return b.T @ b
    if shape == "tied_diagonal":
        return np.diag(rng.integers(1, 4, size=n).astype(float))
    if shape == "identity":
        return np.eye(n)
    z = rng.standard_normal((n, 3))
    similarity = rbf_similarity(z, float(rng.uniform(0.3, 3.0)))
    return build_joint_kernel(similarity, rng.uniform(1e-3, 1.0, size=n),
                              float(rng.uniform(0.0, 0.01))).values


def assert_same_selection(kernel: np.ndarray, k: int) -> None:
    fast, reference = fast_greedy_map(as_joint(kernel), k), greedy_map(kernel, k)
    assert fast.indices == reference.indices
    assert fast.gains == reference.gains
    assert fast.logdet == reference.logdet


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(KERNEL_SHAPES), n=st.integers(1, 40), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fast_greedy_matches_greedy_map_bit_for_bit(shape, n, data, seed):
    kernel = shaped_kernel(shape, n, np.random.default_rng(seed))
    assert_same_selection(kernel, data.draw(st.integers(1, n), label="k"))
    assert_same_selection(kernel, n)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 60), distinct=st.integers(1, 60), lam=st.sampled_from([0.0, 1e-3, 0.05]),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_fast_greedy_on_joint_kernel_matches_greedy_map_on_its_values(n, distinct, lam, data,
                                                                      seed):
    """Columns computed on demand from S, sqrt(q) and lambda are L's columns,
    bit for bit, so the picks, gains and logdet are ``greedy_map``'s on the
    built L. Rows drawn from ``distinct`` points repeat; at lam = 0 a
    duplicate adds no residual, so greedy stops early."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((min(distinct, n), 3)) * rng.uniform(0.1, 10.0)
    z = points[rng.integers(len(points), size=n)]
    joint = build_joint_kernel(rbf_similarity(z, median_bandwidth(z)),
                               rng.uniform(1e-3, 1.0, size=n), lam)
    values = joint.values
    assert joint.diagonal().tobytes() == np.diagonal(values).tobytes()
    j = data.draw(st.integers(0, n - 1), label="column")
    assert joint.column(j, np.empty(n)).tobytes() == values[:, j].tobytes()
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="subset")
    assert joint.submatrix(subset).tobytes() == values[np.ix_(subset, subset)].tobytes()
    for k in (data.draw(st.integers(1, n), label="k"), n):
        fast, reference = fast_greedy_map(joint, k), greedy_map(values, k)
        assert fast.indices == reference.indices
        assert fast.gains == reference.gains
        assert fast.logdet == reference.logdet


def test_fast_greedy_on_joint_kernel_stops_early_on_duplicates():
    z = np.repeat(np.random.default_rng(5).standard_normal((3, 4)), 4, axis=0)
    joint = build_joint_kernel(rbf_similarity(z, 1.0), np.linspace(0.2, 1.0, 12), lam=0.0)
    fast, reference = fast_greedy_map(joint, 12), greedy_map(joint.values, 12)
    assert len(fast.indices) == 3
    assert (fast.indices, fast.gains, fast.logdet) == (reference.indices, reference.gains,
                                                       reference.logdet)


def test_joint_kernel_values_are_the_entrywise_formula():
    """L_ij = (sqrt(q_i) * S_ij) * sqrt(q_j), plus lam on the diagonal, built at each read."""
    rng = np.random.default_rng(6)
    s = random_similarity(30, rng)
    q = rng.uniform(0.05, 1.0, size=30)
    joint = build_joint_kernel(s, q, 0.01)
    root = np.sqrt(q)
    expected = root[:, None] * s * root[None, :]
    expected[np.diag_indices(30)] += 0.01
    assert joint.values.tobytes() == expected.tobytes()
    assert joint.values is not joint.values
    assert joint.similarity is s  # held, not copied


def test_fast_greedy_matches_on_early_stop_and_ties():
    v = np.array([[1.0, 2.0]])
    result = fast_greedy_map(as_joint(v.T @ v), 2)
    assert result.indices == [1] and len(result.gains) == 1
    assert fast_greedy_map(as_joint(np.eye(4)), 2).indices == [0, 1]
    assert fast_greedy_map(as_joint(np.diag([2.0, 3.0, 3.0, 1.0])), 3).indices == [1, 2, 0]


@pytest.mark.parametrize("n, k", [(400, 60), (1000, 150)])
def test_fast_greedy_matches_greedy_map_at_production_sizes(n, k):
    """The pool and subset sizes of the churn benchmark and beyond, where each
    reduced column sums up to k - 1 downdate terms."""
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, 16))
    joint = build_joint_kernel(rbf_similarity(z, median_bandwidth(z)),
                               rng.uniform(0.05, 1.0, size=n)).values
    assert_same_selection(joint, k)
    b = rng.standard_normal((k // 3, n))
    low_rank = b.T @ b
    assert len(greedy_map(low_rank, k).indices) < k  # stops early, its rank used up
    assert_same_selection(low_rank, k)


def test_fast_greedy_peak_allocation_stays_below_one_n_by_n_array():
    n, k = 1500, 50
    rng = np.random.default_rng(8)
    z = rng.standard_normal((n, 8))
    kernel = build_joint_kernel(rbf_similarity(z, median_bandwidth(z)),
                                rng.uniform(0.1, 1.0, size=n)).values
    peaks = {}
    for select, argument in ((fast_greedy_map, as_joint(kernel)), (greedy_map, kernel)):
        tracemalloc.start()
        try:
            select(argument, k)
            peaks[select] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[fast_greedy_map] < kernel.nbytes
    # The reference copies the residual, so the trace does see numpy's allocations.
    assert peaks[greedy_map] >= kernel.nbytes


# ------------------------------------------------------------------- exhaustive

def test_exhaustive_diagonal_example():
    assert exhaustive_map(np.diag([3.0, 1.0, 2.0]), 2).indices == [0, 2]


def test_exhaustive_full_subset():
    kernel = random_psd_kernel(5, np.random.default_rng(8))
    assert exhaustive_map(kernel, 5).indices == [0, 1, 2, 3, 4]


def test_exhaustive_avoids_duplicate_rows():
    z = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 0.0]])
    kernel = rbf_similarity(z, 1.0)  # rows 0 and 1 identical
    result = exhaustive_map(kernel, 2)
    assert not {0, 1} <= set(result.indices)


def test_exhaustive_combinatorial_guard():
    with pytest.raises(ValueError, match="greedy_map"):
        exhaustive_map(np.eye(50), 25)


# ---------------------------------------------------------------- probabilities

def test_subset_probability_singletons():
    kernel = np.diag([1.0, 2.0, 3.0])
    assert kdpp_subset_probability(kernel, [2]) == pytest.approx(0.5)


def test_subset_probability_identity_symmetry():
    for subset in itertools.combinations(range(3), 2):
        assert kdpp_subset_probability(np.eye(3), subset) == pytest.approx(1 / 3)


def test_subset_probability_pair_example():
    kernel = np.diag([1.0, 2.0, 3.0])
    assert kdpp_subset_probability(kernel, [1, 2]) == pytest.approx(6 / 11)


def test_subset_probabilities_sum_to_one():
    rng = np.random.default_rng(9)
    kernel = random_psd_kernel(6, rng)
    for k in (1, 2, 3):
        total = sum(
            kdpp_subset_probability(kernel, s) for s in itertools.combinations(range(6), k)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_elementary_symmetric_matches_bruteforce():
    rng = np.random.default_rng(10)
    vals = rng.uniform(0.1, 3.0, size=6)
    for k in range(1, 4):
        brute = sum(np.prod([vals[i] for i in s]) for s in itertools.combinations(range(6), k))
        assert _esp_table(vals, k)[k, 6] == pytest.approx(brute, rel=1e-12)


# --------------------------------------------------------------------- sampling

def test_sampler_full_rank_identity():
    for seed in range(5):
        assert kdpp_sample(np.eye(3), 3, seed=seed) == [0, 1, 2]


def test_sampler_skips_null_directions():
    kernel = np.diag([1.0, 0.0, 1.0])
    rng = np.random.default_rng(11)
    for _ in range(20):
        assert kdpp_sample(kernel, 2, rng) == [0, 2]


def test_sampler_rank_guard():
    with pytest.raises(ValueError, match="rank"):
        kdpp_sample(np.diag([1.0, 0.0, 1.0]), 3, seed=0)


def test_sampler_singleton_frequencies():
    kernel = np.diag([1.0, 2.0, 3.0])
    rng = np.random.default_rng(12)
    draws = 100_000
    counts = np.zeros(3)
    for _ in range(draws):
        counts[kdpp_sample(kernel, 1, rng)[0]] += 1
    for i in range(3):
        expected = kdpp_subset_probability(kernel, [i])
        assert counts[i] / draws == pytest.approx(expected, abs=0.01)


# -------------------------------------------------------- quality monotonicity

def _inclusion_probability(kernel: np.ndarray, item: int, k: int) -> float:
    total = 0.0
    hit = 0.0
    for subset in itertools.combinations(range(kernel.shape[0]), k):
        det = max(float(np.linalg.det(kernel[np.ix_(subset, subset)])), 0.0)
        total += det
        if item in subset:
            hit += det
    return hit / total


def test_boosting_quality_never_reduces_inclusion():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = int(rng.integers(4, 9))
        s = random_similarity(n, rng)
        q = rng.uniform(0.05, 1.0, size=n)
        item = int(rng.integers(n))
        k = int(rng.integers(1, 4))
        base = _inclusion_probability(build_joint_kernel(s, q, lam=0.0).values, item, k)
        for c in (1.5, 3.0, 10.0):
            boosted = q.copy()
            boosted[item] *= c
            prob = _inclusion_probability(build_joint_kernel(s, boosted, lam=0.0).values, item, k)
            assert prob >= base - 1e-12
            base = prob


# ---------------------------------------------------------------------- exports

def test_kernel_csv_header_line(tmp_path):
    kernel = build_joint_kernel(np.eye(2), [0.5, 0.5], lam=0.01)
    path = tmp_path / "kernel.csv"
    kernel.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2,0.01"
    assert len(lines) == 3


def test_selection_json_fields():
    result = greedy_map(np.diag([3.0, 1.0, 2.0]), 2)
    assert result.indices == [0, 2]
    assert result.logdet == pytest.approx(math.log(6))
    assert len(result.gains) == 2
