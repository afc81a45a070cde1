"""Latent-space geometry: pool embeddings and RBF similarity."""

from __future__ import annotations

import numpy as np

from .policy import SequencePolicy
from .windows import WindowBatch


def encode_pool(pool: WindowBatch, model: SequencePolicy) -> np.ndarray:
    """One deterministic embedding per window, (N, d), by one ``encode`` of the pool."""
    if len(pool) == 0:
        raise ValueError("pool must be non-empty")
    embeddings = np.asarray(model.encode(pool), dtype=float)
    if not np.all(np.isfinite(embeddings)):
        raise ValueError("encoder produced non-finite embeddings")
    return embeddings


def pairwise_distances(embeddings: np.ndarray) -> np.ndarray:
    """Full matrix of Euclidean distances, exactly symmetric with zero diagonal."""
    z = np.asarray(embeddings, dtype=float)
    sq = np.sum(z ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    np.maximum(d2, 0.0, out=d2)
    np.sqrt(d2, out=d2)
    d = np.triu(d2, k=1)
    del d2  # so at most two N x N arrays coexist from here on
    return d + d.T


def median_bandwidth(embeddings: np.ndarray, *, distances: np.ndarray | None = None) -> float:
    """Median of all pairwise distances; falls back to 1 for duplicate-heavy pools.

    ``distances``, if given, must be ``pairwise_distances(embeddings)``; it is
    read, not rebuilt. The median is ``np.median``'s: the middle order
    statistic, or the mean of the middle two, of one copy of the upper
    triangle partitioned in place.
    """
    z = np.asarray(embeddings, dtype=float)
    n = z.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 embeddings")
    d = pairwise_distances(z) if distances is None else distances
    upper = d[np.arange(n)[:, None] < np.arange(n)]
    middle = [(upper.size - 1) // 2, upper.size // 2]
    upper.partition(middle)
    sigma = float(np.mean(upper[middle[0]:middle[1] + 1]))
    return sigma if sigma > 0.0 else 1.0


def rbf_similarity(embeddings: np.ndarray, sigma: float, *,
                   distances: np.ndarray | None = None) -> np.ndarray:
    """S_ij = exp(-||z_i - z_j||^2 / sigma^2), with sigma the distance scale.

    Symmetric with unit diagonal and entries in (0, 1]. ``distances``, if
    given, must be ``pairwise_distances(embeddings)``; it is read, not rebuilt.
    """
    if sigma <= 0:
        raise ValueError(f"bandwidth must be positive, got {sigma}")
    d = pairwise_distances(embeddings) if distances is None else distances
    # exp(-(d ** 2) / sigma ** 2) in place: the same arithmetic, one N x N array beside d
    values = np.square(d)
    np.negative(values, out=values)
    values /= sigma ** 2
    np.exp(values, out=values)
    np.fill_diagonal(values, 1.0)
    return values
