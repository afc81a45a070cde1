"""Debiased mixed replay: batch composition, inclusion probabilities, weights."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class WeightMode(Enum):
    RAW = "RAW"            # unbiased estimator
    MEAN_ONE = "MEAN_ONE"  # self-normalized, lower variance


@dataclass(frozen=True)
class MixedBatch:
    """The window ids of one gradient step, with mixture probabilities and weights.

    ``ids`` (int64) go to ``ReplayBuffer.gather`` as they are. ``probabilities[i]``
    is the per-draw probability of window ``ids[i]`` under the whole mixture,
    whichever stream (``from_selection[i]``) drew it; ``weights[i]`` is (1/|D|) / p_i.
    """

    ids: np.ndarray
    from_selection: np.ndarray
    probabilities: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def inclusion_probability(in_selection: bool, selection_size: int, pool_size: int,
                          eta: float) -> float:
    """Per-draw probability of one window under the mixed-replay distribution."""
    selected_term = eta / selection_size if in_selection else 0.0
    return selected_term + (1.0 - eta) / pool_size


def mixed_sample(
    selection: Sequence[int],
    pool_size: int,
    batch_size: int,
    eta: float,
    seed,
) -> MixedBatch:
    """Compose a batch: floor(eta*B) draws from the selection, rest from the pool.

    Both sub-batches draw uniformly with replacement; that keeps the
    per-draw probability formula exact. The selection's draws come first in
    ``ids``. Deterministic given the seed.
    """
    if pool_size <= 0:
        raise ValueError("pool_size must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    selection = np.asarray(selection, dtype=np.int64)
    if eta > 0.0 and not selection.size:
        raise ValueError("selection must be non-empty when eta > 0")
    if selection.size and (selection.min() < 0 or selection.max() >= pool_size):
        raise ValueError("selection indices must lie inside the pool")

    rng = np.random.default_rng(seed)
    n_selected = math.floor(eta * batch_size)
    ids = np.empty(batch_size, dtype=np.int64)
    if n_selected:
        ids[:n_selected] = selection[rng.integers(0, selection.size, size=n_selected)]
    if n_selected < batch_size:
        ids[n_selected:] = rng.integers(0, pool_size, size=batch_size - n_selected)

    size = max(selection.size, 1)
    in_selection = (ids[:, None] == selection).any(axis=1)
    probs = np.where(in_selection, inclusion_probability(True, size, pool_size, eta),
                     inclusion_probability(False, size, pool_size, eta))
    from_selection = np.zeros(batch_size, dtype=bool)
    from_selection[:n_selected] = True
    return MixedBatch(
        ids=ids,
        from_selection=from_selection,
        probabilities=probs,
        weights=(1.0 / pool_size) / probs,
    )


def normalize_weights(batch: MixedBatch, mode: WeightMode = WeightMode.RAW) -> MixedBatch:
    """RAW keeps the unbiased weights; MEAN_ONE rescales to batch-mean 1.

    Any weight <= 0 is rejected; a NaN is not, and does not hide one
    (``fmin`` skips NaNs).
    """
    weights = batch.weights
    if weights.size and np.fmin.reduce(weights, axis=None) <= 0:
        raise ValueError("batch weights must be positive")
    if mode is WeightMode.RAW or not weights.size:
        return batch
    return MixedBatch(batch.ids, batch.from_selection, batch.probabilities,
                      weights / (weights.sum() / weights.size))  # np.mean's arithmetic


def estimate_uniform_mean(
    f: Sequence[float],
    selection: Sequence[int],
    pool_size: int,
    batch_size: int,
    eta: float,
    trials: int,
    seed,
) -> float:
    """RAW-weighted Monte Carlo estimate of the uniform pool mean of f.

    Debiasing check helper: averages omega_i * f(i) over ``trials`` batches,
    one weighted sum of ``f[batch.ids]`` per batch, which converges to
    mean(f) over the whole pool.
    """
    values = np.asarray(f, dtype=float)
    rng = np.random.default_rng(seed)
    total = 0.0
    count = 0
    for _ in range(trials):
        batch = mixed_sample(selection, pool_size, batch_size, eta, rng)
        total += float(batch.weights @ values[batch.ids])
        count += len(batch)
    return total / count
