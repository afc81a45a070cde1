"""Composite per-window quality scores: return quantile, uncertainty, coverage."""

from __future__ import annotations

import math
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
            if not 0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
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
    action logits each; the result is one trace per window, (N,). Its
    expectation over the policy's dropout masks is ``predictive_variance``.
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
    labels = np.asarray(stage_labels, dtype=np.int64)
    if labels.size and labels.min() < 0:
        raise ValueError("stage labels must be non-negative")
    if not 0 <= smoothing_alpha < math.inf:
        raise ValueError(f"smoothing_alpha must be finite and >= 0, got {smoothing_alpha}")
    # Counted by sorting, not bincount: labels read from a dump can be any int64.
    _, stage, counts = np.unique(labels, return_inverse=True, return_counts=True)
    freq = counts + smoothing_alpha
    return 1.0 - freq[stage] / freq.max()


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

    The return component is the window-truncated discounted reward sum. The
    uncertainty is ``model.predictive_variance``, the exact variance over
    dropout masks, so scoring draws nothing: any dropout rate above 0 gives the
    same normalised component up to rounding, and rate 0 gives 0.5 everywhere.
    ``passes`` (validated, >= 2) and ``seed`` are accepted but unused. The
    coverage component scores each window's majority stage.
    """
    if len(pool) == 0:
        raise ValueError("pool must be non-empty")
    if passes < 2:
        raise ValueError(f"passes must be >= 2, got {passes}")
    rtg_q = rtg_quantiles(pool.returns(gamma))

    raw = model.predictive_variance(pool)
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
