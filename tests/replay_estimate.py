"""Monte Carlo helper shared by the debiasing tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qdreplay.replay import mixed_sample


def estimate_uniform_mean(
    f: Sequence[float],
    selection: Sequence[int],
    window_count: int,
    batch_size: int,
    eta: float,
    trials: int,
    seed,
) -> float:
    """RAW-weighted Monte Carlo estimate of the uniform mean of f over all windows.

    Averages omega_i * f(i) over ``trials`` batches, one weighted sum of
    ``f[ids]`` per batch, which converges to mean(f) over every window.
    """
    values = np.asarray(f, dtype=float)
    rng = np.random.default_rng(seed)
    total = 0.0
    count = 0
    for _ in range(trials):
        ids, weights = mixed_sample(selection, window_count, batch_size, eta, rng)
        total += float(weights @ values[ids])
        count += len(ids)
    return total / count
