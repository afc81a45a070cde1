"""Latent-space geometry: pool embeddings, the median bandwidth and the RBF similarity.

A selection keeps no N x N array. ``RBFSimilarity`` computes each entry of
the similarity where it is read, by one formula, so greedy MAP reads the
diagonal and one column per pick in O(N d) each. ``median_bandwidth`` builds
the distances one row block at a time in one scratch block, dropped once
counted. ``rbf_similarity`` and ``pairwise_distances`` return whole matrices,
built by row blocks. Temporaries are O(N * _ROW_BLOCK).
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


class RBFSimilarity:
    """S_ij = exp(-d2_ij / sigma^2) of (N, d) embeddings, computed where it is read.

    ``S[rows, cols]`` takes index arrays in [0, N) that broadcast together, as
    numpy's fancy indexing does, or the ``slice(None)`` rows of one column j,
    and returns a new array. d2_ij = sum_f (z_if - z_jf) ** 2 is added one
    feature at a time in index order, so the bits of an entry do not depend
    on which entries are read with it: S is exactly symmetric, its diagonal
    is 1, and equal embeddings, -0.0 and 0.0 alike, are at similarity exactly
    1. A column costs O(N d); no N x N array is made unless one is read.
    """

    def __init__(self, embeddings: np.ndarray, sigma: float):
        z = np.asarray(embeddings, dtype=float)
        if z.ndim != 2 or z.shape[1] < 1:
            raise ValueError(f"embeddings must be (N, d) with d >= 1, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("embeddings must be finite")
        if not 0 < sigma < math.inf:
            raise ValueError(f"bandwidth must be finite and positive, got {sigma}")
        self.features = np.ascontiguousarray(z.T)  # (d, N): one contiguous row per feature
        self.sigma = float(sigma)
        self.shape = (z.shape[0], z.shape[0])

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        if isinstance(rows, slice):
            # A column takes every feature in one (d, N) array: np.add.reduce along the
            # slow axis adds the features one at a time in index order, as the loop does
            # (numpy sums pairwise only along the fast axis).
            d2 = self.features[:, rows] - self.features[:, cols, None]
            np.square(d2, out=d2)
            d2 = np.add.reduce(d2, axis=0)
        else:
            first, *rest = self.features
            d2 = np.asarray(first[rows] - first[cols])
            np.square(d2, out=d2)
            term = np.empty_like(d2)
            for feature in rest:
                np.subtract(feature[rows], feature[cols], out=term)
                np.square(term, out=term)
                d2 += term
        d2 /= -self.sigma ** 2  # x / -y has the bits of -x / y
        np.exp(d2, out=d2)
        return d2


def rbf_similarity(embeddings: np.ndarray, sigma: float) -> np.ndarray:
    """S_ij = exp(-||z_i - z_j||^2 / sigma^2), with sigma the distance scale, as an N x N array.

    ``RBFSimilarity(embeddings, sigma)`` read whole, one row block at a time,
    so every entry has the bits a selection reads. Symmetric with unit
    diagonal and entries in [0, 1].
    """
    similarity = RBFSimilarity(embeddings, sigma)
    s = np.empty(similarity.shape)
    every = np.arange(len(s))
    for start in range(0, len(s), _ROW_BLOCK):
        s[start:start + _ROW_BLOCK] = similarity[every[start:start + _ROW_BLOCK, None], every]
    return s


def _distance_blocks(z: np.ndarray, out: np.ndarray):
    """Build each row block's upper part of the distances in ``out`` and yield it.

    The block of rows [start, start + _ROW_BLOCK) takes the columns from
    ``start`` on: its Gram product a.b by one ``matmul``, then
    sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0)), the float operations of the
    full-matrix formula. The product goes by row blocks because one
    whole-pool ``z @ z.T`` wakes a BLAS worker thread, which then spins
    through the rest of the refresh. Equal rows are set to exactly 0: the
    Gram form need not cancel for them. Rows are equal when their bytes are,
    once ``+ 0.0`` has made each -0.0 a 0.0. ``out`` is either N x N, and each
    block is built at its place, or a flat scratch of min(N, _ROW_BLOCK) * N
    floats, whose head each block overwrites as one contiguous array.
    """
    n = len(z)
    sq = np.sum(z ** 2, axis=1)
    rows = np.ascontiguousarray(z) + 0.0
    group = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
                      return_inverse=True)[1]  # one id per distinct row
    del rows
    twin = np.bincount(group)[group] > 1  # rows equal to another row
    diagonal = np.arange(_ROW_BLOCK)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        upper = (out[start:stop, start:] if out.shape == (n, n)
                 else out[:(stop - start) * (n - start)].reshape(stop - start, -1))
        np.matmul(z[start:stop], z[start:].T, out=upper)
        upper *= 2.0
        np.subtract(sq[start:stop, None] + sq[None, start:], upper, out=upper)
        np.maximum(upper, 0.0, out=upper)
        np.sqrt(upper, out=upper)
        upper[diagonal[:stop - start], diagonal[:stop - start]] = 0.0
        twins = np.flatnonzero(twin[start:stop])
        if twins.size:
            at, col = np.nonzero(group[start + twins, None] == group[None, start:])
            upper[twins[at], col] = 0.0
        yield start, upper


def pairwise_distances(embeddings: np.ndarray) -> np.ndarray:
    """Full matrix of Euclidean distances, exactly symmetric with zero diagonal.

    One N x N array is allocated; each row block's upper part is built in it
    by ``_distance_blocks`` and mirrored into the lower part. These are the
    float operations of the full-matrix formula over that row-block product,
    followed by ``triu`` and a transpose-add.
    """
    z = np.asarray(embeddings, dtype=float)
    below = np.tri(_ROW_BLOCK, k=-1, dtype=bool)  # a diagonal block's lower triangle
    d = np.empty((len(z), len(z)))
    for start, upper in _distance_blocks(z, d):
        stop = start + len(upper)
        d[start:stop, :start] = d[:start, start:stop].T
        block = d[start:stop, start:stop]
        np.copyto(block, block.T, where=below[:len(block), :len(block)])
    return d


def median_bandwidth(embeddings: np.ndarray) -> float:
    """Median of all pairwise distances; 1 below two embeddings or when the median is 0.

    The median is ``np.median``'s of the upper triangle of
    ``pairwise_distances(embeddings)``, bit for bit: the middle order
    statistic, or the mean of the middle two. A strided sample of the pairs
    brackets the middle ranks; one pass over row blocks of the distances,
    each built in one scratch block and dropped once counted, counts the
    entries below the bracket and collects those inside it, which are
    partitioned at the middle ranks. If the bracket misses them, one pass
    collects every entry.
    """
    z = np.asarray(embeddings, dtype=float)
    n = z.shape[0]
    if n < 2:
        return 1.0  # no pair; a one-window similarity is [[1]] at any sigma
    size = n * (n - 1) // 2
    middle = [(size - 1) // 2, size // 2]
    below, inside = _upper_between(z, *_median_bracket(z, middle, size))
    if not below <= middle[0] <= middle[1] < below + inside.size:
        below, inside = _upper_between(z, -np.inf, np.inf)
    ranks = [m - below for m in middle]
    _partition_at(inside, ranks)
    sigma = float(np.mean(inside[ranks[0]:ranks[1] + 1]))
    return sigma if sigma > 0.0 else 1.0


def _median_bracket(z: np.ndarray, middle: list[int], size: int) -> tuple[float, float]:
    """Two sample values that bracket the middle ranks of the distances, or +-inf.

    The sample's distances are Gram-form blocks that may round otherwise than
    the counted ones: they only place the bracket, and a miss costs one more
    pass.
    """
    if size <= _SAMPLE_SIZE:
        return -np.inf, np.inf  # the sample would be every entry
    n = len(z)
    # Every stride-th entry of the flat N x N matrix from (0, 1) on, less the diagonal's: the
    # distances are symmetric, so these are pairs. A stride that shares a factor with n would
    # skip columns. Entry (i, j) is sampled when i n + j = 1 (mod stride); n is invertible
    # mod stride, so the columns j = g (mod stride) meet the rows i = h(g) (mod stride). The
    # first ``per`` rows and columns of each class pair that has them all make one batched
    # Gram product, with no N x N gather.
    stride = -(-n * n // _SAMPLE_SIZE)
    while math.gcd(stride, n) != 1:
        stride += 1
    per = max(n // stride, 1)
    classes = np.arange(stride)
    cols = classes[:, None] + stride * np.arange(per)
    rows = (1 - classes[:, None]) * pow(n, -1, stride) % stride + stride * np.arange(per)
    whole = (rows[:, -1] < n) & (cols[:, -1] < n)
    rows, cols = rows[whole], cols[whole]
    sq = np.sum(z ** 2, axis=1)
    sample = sq[rows][:, :, None] + sq[cols][:, None, :]
    sample -= 2.0 * (z[rows] @ z[cols].transpose(0, 2, 1))
    sample = sample[rows[:, :, None] != cols[:, None, :]]
    np.maximum(sample, 0.0, out=sample)
    np.sqrt(sample, out=sample)
    scale = sample.size / size
    margin = _BRACKET_MARGIN * math.sqrt(sample.size)
    low = math.floor(middle[0] * scale - margin)
    high = math.ceil(middle[1] * scale + margin)
    kth = [min(max(rank, 0), sample.size - 1) for rank in (low, high)]
    _partition_at(sample, kth)
    return (float(sample[kth[0]]) if low >= 0 else -np.inf,
            float(sample[kth[1]]) if high < sample.size else np.inf)


def _partition_at(values: np.ndarray, ranks: list[int]) -> None:
    """Partition ``values`` in place at two ranks, the first no greater, one at a time.

    numpy partitions at several ranks at once by a path several times slower.
    """
    values.partition(ranks[1])
    if ranks[0] < ranks[1]:
        values[:ranks[1]].partition(ranks[0])


def _upper_between(z: np.ndarray, low: float, high: float) -> tuple[int, np.ndarray]:
    """How many distances of the upper triangle are below ``low``, and those in [low, high]."""
    n = len(z)
    below, inside = 0, []
    lower = np.tri(_ROW_BLOCK, dtype=bool)  # a diagonal block's diagonal and lower triangle
    for _, block in _distance_blocks(z, np.empty(min(n, _ROW_BLOCK) * n)):
        # NaN compares false, so the block's entries left of the upper triangle go uncounted.
        block[:, :len(block)][lower[:len(block), :len(block)]] = np.nan
        flat = block.reshape(-1)  # contiguous: a view
        below += int(np.count_nonzero(flat < low))
        keep = flat >= low
        keep &= flat <= high
        inside.append(np.compress(keep, flat))
    return below, np.concatenate(inside)
