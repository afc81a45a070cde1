"""Latent-space geometry: pool embeddings and RBF similarity.

The N x N work keeps one N x N array: ``pairwise_distances`` builds the Gram
product and the distances in it one row block at a time, ``median_bandwidth``
reads them one row block at a time, and ``rbf_similarity(z, sigma,
distances=d)`` turns them into the similarity in place. Temporaries are
O(N * _ROW_BLOCK).
"""

from __future__ import annotations

import math

import numpy as np

from .policy import LinearSoftmaxPolicy
from .windows import WindowBatch

_ROW_BLOCK = 64  # rows per block of an N x N pass
_SAMPLE_SIZE = 1 << 14  # at most this many upper-triangle entries bracket the median
# Half-width of the median's bracket in sample ranks, in square roots of the
# sample size. A sample rank scatters about the population's like a binomial
# count, by at most half a root, so misses are rare; a miss costs one more pass.
_BRACKET_MARGIN = 4.0


def encode_pool(pool: WindowBatch, model: LinearSoftmaxPolicy) -> np.ndarray:
    """One deterministic embedding per window, (N, d), by one ``encode`` of the pool."""
    if len(pool) == 0:
        raise ValueError("pool must be non-empty")
    embeddings = np.asarray(model.encode(pool), dtype=float)
    if not np.all(np.isfinite(embeddings)):
        raise ValueError("encoder produced non-finite embeddings")
    return embeddings


def pairwise_distances(embeddings: np.ndarray) -> np.ndarray:
    """Full matrix of Euclidean distances, exactly symmetric with zero diagonal.

    One N x N array is allocated, and each row block's upper part is built in
    it: the block's Gram product a.b, then sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0)),
    mirrored into the lower part. These are the float operations of the
    full-matrix formula over that row-block product, followed by ``triu`` and
    a transpose-add. The product goes by row blocks because one whole-pool
    ``z @ z.T`` wakes a BLAS worker thread, which then spins through the rest
    of the refresh. Equal rows are set to exactly 0: the Gram form need not
    cancel for them.
    """
    z = np.asarray(embeddings, dtype=float)
    sq = np.sum(z ** 2, axis=1)
    # One id per distinct row; NumPy 2.0.0 returns the ids 2-D, hence the reshape.
    group = np.unique(z, axis=0, return_inverse=True)[1].reshape(-1)
    d = np.empty((len(z), len(z)))
    for start in range(0, len(d), _ROW_BLOCK):
        stop = start + _ROW_BLOCK  # slices end at N
        upper = d[start:stop, start:]
        np.matmul(z[start:stop], z[start:].T, out=upper)
        upper *= 2.0
        np.subtract(sq[start:stop, None] + sq[None, start:], upper, out=upper)
        np.maximum(upper, 0.0, out=upper)
        np.sqrt(upper, out=upper)
        upper[group[start:stop, None] == group[None, start:]] = 0.0  # and the diagonal
        d[start:stop, :start] = d[:start, start:stop].T
        block = d[start:stop, start:stop]
        lower = np.tril_indices(len(block), k=-1)
        block[lower] = block.T[lower]
    return d


def median_bandwidth(embeddings: np.ndarray, *, distances: np.ndarray | None = None) -> float:
    """Median of all pairwise distances; falls back to 1 for duplicate-heavy pools.

    ``distances``, if given, must be ``pairwise_distances(embeddings)``; it is
    read, not rebuilt. The median is ``np.median``'s of the upper triangle,
    bit for bit: the middle order statistic, or the mean of the middle two.
    A strided sample of the upper triangle brackets the middle ranks; one pass
    over row blocks counts the entries below the bracket and collects those
    inside it, which are partitioned at the middle ranks. If the bracket
    misses them, one pass collects every entry.
    """
    z = np.asarray(embeddings, dtype=float)
    n = z.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 embeddings")
    d = pairwise_distances(z) if distances is None else distances
    size = n * (n - 1) // 2
    middle = [(size - 1) // 2, size // 2]
    below, inside = _upper_between(d, *_median_bracket(d, middle, size))
    if not below <= middle[0] <= middle[1] < below + inside.size:
        below, inside = _upper_between(d, -np.inf, np.inf)
    ranks = [m - below for m in middle]
    inside.partition(ranks)
    sigma = float(np.mean(inside[ranks[0]:ranks[1] + 1]))
    return sigma if sigma > 0.0 else 1.0


def _median_bracket(d: np.ndarray, middle: list[int], size: int) -> tuple[float, float]:
    """Two sample values that bracket the middle ranks of the upper triangle, or +-inf."""
    if size <= _SAMPLE_SIZE:
        return -np.inf, np.inf  # the sample would be every entry
    n = len(d)
    pairs = np.arange(0, size, -(-size // _SAMPLE_SIZE))  # row-major positions
    lengths = np.arange(n - 1, 0, -1)  # pairs in rows 0 .. n - 2
    offsets = np.cumsum(lengths) - lengths
    rows = np.searchsorted(offsets, pairs, side="right") - 1
    sample = d[rows, pairs - offsets[rows] + rows + 1]
    scale = sample.size / size
    margin = _BRACKET_MARGIN * math.sqrt(sample.size)
    low = math.floor(middle[0] * scale - margin)
    high = math.ceil(middle[1] * scale + margin)
    kth = [min(max(rank, 0), sample.size - 1) for rank in (low, high)]
    sample.partition(kth)
    return (float(sample[kth[0]]) if low >= 0 else -np.inf,
            float(sample[kth[1]]) if high < sample.size else np.inf)


def _upper_between(d: np.ndarray, low: float, high: float) -> tuple[int, np.ndarray]:
    """How many upper-triangle entries are below ``low``, and those in [low, high]."""
    below, inside = 0, []
    for start in range(0, len(d), _ROW_BLOCK):
        block = d[start:start + _ROW_BLOCK, start:]
        upper = block[np.arange(len(block))[:, None] < np.arange(block.shape[1])]
        below += int(np.count_nonzero(upper < low))
        keep = upper >= low
        keep &= upper <= high
        inside.append(upper[keep])
    return below, np.concatenate(inside)


def rbf_similarity(embeddings: np.ndarray, sigma: float, *,
                   distances: np.ndarray | None = None) -> np.ndarray:
    """S_ij = exp(-||z_i - z_j||^2 / sigma^2), with sigma the distance scale.

    Symmetric with unit diagonal and entries in (0, 1]. ``distances``, if
    given, must be ``pairwise_distances(embeddings)``; it is overwritten with
    the similarity and returned, so no second N x N array is made.
    """
    if sigma <= 0:
        raise ValueError(f"bandwidth must be positive, got {sigma}")
    s = pairwise_distances(embeddings) if distances is None else distances
    # exp(-(d ** 2) / sigma ** 2), in place
    np.square(s, out=s)
    np.negative(s, out=s)
    s /= sigma ** 2
    np.exp(s, out=s)
    np.fill_diagonal(s, 1.0)
    return s
