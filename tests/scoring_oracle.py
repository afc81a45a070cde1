"""Per-entry references for the scoring tests."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np


def rtg_quantile(window_returns: Sequence[float], target_index: int) -> float:
    """Mid-rank empirical quantile of one return within the pool, by counting.

    (#strictly below + half the ties) / pool size: the definition that
    ``qdreplay.scoring.rtg_quantiles`` computes for the whole pool at once.
    """
    returns = np.asarray(window_returns, dtype=float)
    if returns.size == 0:
        raise ValueError("window_returns must be non-empty")
    if not 0 <= target_index < returns.size:
        raise ValueError(f"target_index {target_index} outside pool of {returns.size}")
    g = returns[target_index]
    below = np.count_nonzero(returns < g)
    ties = np.count_nonzero(returns == g)
    return (below + 0.5 * ties) / returns.size


def stage_coverage(stage_labels: Sequence[int], smoothing_alpha: float = 0.0) -> np.ndarray:
    """1 - (count + alpha) / the largest (count + alpha), each label counted by a ``Counter``.

    The definition that ``qdreplay.scoring.stage_coverage`` computes by sorting.
    """
    labels = [int(x) for x in stage_labels]
    freq = {c: n + smoothing_alpha for c, n in Counter(labels).items()}
    top = max(freq.values())
    return np.array([1.0 - freq[x] / top for x in labels])
