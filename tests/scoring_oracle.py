"""Per-entry reference for the scoring tests."""

from __future__ import annotations

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
