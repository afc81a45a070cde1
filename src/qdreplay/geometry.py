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
_SAMPLE_SIZE = 1 << 14  # at most this many off-diagonal entries bracket the median
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
    cancel for them. Rows are equal when their bytes are, once ``+ 0.0`` has
    made each -0.0 a 0.0.
    """
    z = np.asarray(embeddings, dtype=float)
    sq = np.sum(z ** 2, axis=1)
    rows = np.ascontiguousarray(z) + 0.0
    group = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
                      return_inverse=True)[1]  # one id per distinct row
    below = np.tri(_ROW_BLOCK, k=-1, dtype=bool)  # a diagonal block's lower triangle
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
        np.copyto(block, block.T, where=below[:len(block), :len(block)])
    return d


def median_bandwidth(embeddings: np.ndarray, *, distances: np.ndarray | None = None) -> float:
    """Median of all pairwise distances; 1 below two embeddings or when the median is 0.

    ``distances``, if given, must be ``pairwise_distances(embeddings)``; it is
    read, not rebuilt. The median is ``np.median``'s of the upper triangle,
    bit for bit: the middle order statistic, or the mean of the middle two.
    A strided sample of the off-diagonal entries brackets the middle ranks;
    one pass over row blocks counts the entries below the bracket and
    collects those inside it, which are partitioned at the middle ranks. If
    the bracket misses them, one pass collects every entry.
    """
    z = np.asarray(embeddings, dtype=float)
    n = z.shape[0]
    if n < 2:
        return 1.0  # no pair; a one-window similarity is [[1]] at any sigma
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
    # Every stride-th entry of the flat matrix from d[0, 1] on, less the diagonal's: d is
    # symmetric, so these are pairs. A stride that shares a factor with n would skip columns.
    stride = -(-n * n // _SAMPLE_SIZE)
    while math.gcd(stride, n) != 1:
        stride += 1
    sample = d.reshape(-1)[1::stride][np.arange(1, n * n, stride) % (n + 1) != 0]
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
    above = np.arange(_ROW_BLOCK)[:, None] < np.arange(len(d))  # a row block's upper part
    for start in range(0, len(d), _ROW_BLOCK):
        block = d[start:start + _ROW_BLOCK, start:]
        upper = block[above[:len(block), :block.shape[1]]]
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
    if not 0 < sigma < math.inf:
        raise ValueError(f"bandwidth must be finite and positive, got {sigma}")
    s = pairwise_distances(embeddings) if distances is None else distances
    # exp(-(d ** 2) / sigma ** 2), in place; x / -y has the bits of -x / y
    np.square(s, out=s)
    s /= -sigma ** 2
    np.exp(s, out=s)
    np.fill_diagonal(s, 1.0)
    return s
