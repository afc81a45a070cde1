"""Composite per-window quality scores: return quantile, uncertainty, coverage."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .policy import LinearSoftmaxPolicy
from .windows import WindowBatch

# Floor keeping the joint kernel's diagonal strictly positive before
# regularization; only affects tie-breaking among zero-quality windows.
Q_MIN = 1e-6


@dataclass(frozen=True)
class QualityWeights:
    alpha: float
    beta: float
    zeta: float

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta), ("zeta", self.zeta)):
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if abs(self.alpha + self.beta + self.zeta - 1.0) > 1e-12:
            raise ValueError(
                f"weights must sum to 1, got {self.alpha + self.beta + self.zeta!r}"
            )


@dataclass
class QualityReport:
    rtg_quantile: np.ndarray
    uncertainty_raw: np.ndarray
    uncertainty_norm: np.ndarray
    coverage: np.ndarray
    composite: np.ndarray


def rtg_quantiles(window_returns: Sequence[float]) -> np.ndarray:
    """Mid-rank empirical quantile of every return within the pool.

    (#strictly below + half the ties) / pool size, so the score is invariant
    to any strictly increasing transform of the returns and ties are scored
    symmetrically. Counts come by binary search in the sorted returns.
    """
    returns = np.asarray(window_returns, dtype=float)
    ordered = np.sort(returns)
    below = np.searchsorted(ordered, returns, side="left")
    through = np.searchsorted(ordered, returns, side="right")
    return (below + 0.5 * (through - below)) / returns.size


def predictive_uncertainty(predictions) -> np.ndarray:
    """Trace of the unbiased sample covariance across stochastic-pass means.

    ``predictions`` is an (M, N, A) stack of M passes over N windows with A
    action logits each; the result is one trace per window, (N,).
    """
    stack = np.asarray(predictions, dtype=float)
    if stack.shape[0] < 2:
        raise ValueError("insufficient stochastic passes: need M >= 2")
    centered = stack - stack.mean(axis=0)
    per_dim_var = (centered ** 2).sum(axis=0) / (stack.shape[0] - 1)
    return per_dim_var.sum(axis=-1)


def normalize_uncertainty(raw: Sequence[float]) -> np.ndarray:
    """Pool-wise min-max normalization; degenerate all-equal pools map to 0.5."""
    values = np.asarray(raw, dtype=float)
    if values.size == 0:
        raise ValueError("raw uncertainties must be non-empty")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("raw uncertainties must be finite and non-negative")
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


def stage_coverage(stage_labels: Sequence[int], smoothing_alpha: float = 0.0) -> np.ndarray:
    """Inverse-frequency rarity score: 1 - freq(label) / max freq.

    Counts get add-alpha smoothing so extremely rare outliers are not
    overemphasized; the most frequent stage scores exactly 0 when alpha is 0.
    """
    labels = [int(x) for x in stage_labels]
    if any(x < 0 for x in labels):
        raise ValueError("stage labels must be non-negative")
    if smoothing_alpha < 0:
        raise ValueError("smoothing_alpha must be >= 0")
    counts = Counter(labels)
    freq = {c: n + smoothing_alpha for c, n in counts.items()}
    top = max(freq.values())
    return np.array([1.0 - freq[x] / top for x in labels])


def composite_quality(
    pool: WindowBatch,
    weights: QualityWeights,
    model: LinearSoftmaxPolicy,
    passes: int,
    gamma: float,
    seed: int,
    smoothing_alpha: float = 0.0,
) -> QualityReport:
    """Score every window in the pool and combine the three components.

    The stochastic passes reuse one dropout mask per pass index across all
    windows, keyed by (seed, m) for m = 1..passes, so reruns with the same
    seed reproduce bit-identically. The return component is the
    window-truncated discounted reward sum; the coverage component scores
    each window's majority stage.
    """
    if len(pool) == 0:
        raise ValueError("pool must be non-empty")
    rtg_q = rtg_quantiles(pool.returns(gamma))

    raw = predictive_uncertainty(
        [model.predict_mean(pool, (seed, m)) for m in range(1, passes + 1)])
    u_norm = normalize_uncertainty(raw)

    rho = stage_coverage(pool.stage_labels, smoothing_alpha)

    q = weights.alpha * rtg_q + weights.beta * u_norm + weights.zeta * rho
    q = np.maximum(q, Q_MIN)
    return QualityReport(
        rtg_quantile=rtg_q,
        uncertainty_raw=raw,
        uncertainty_norm=u_norm,
        coverage=rho,
        composite=q,
    )
