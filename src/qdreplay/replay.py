"""Debiased mixed replay: batch composition, inclusion probabilities, weights."""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np


class WeightMode(Enum):
    RAW = "RAW"            # unbiased estimator
    MEAN_ONE = "MEAN_ONE"  # self-normalized, lower variance


def inclusion_probability(in_selection: bool, selection_size: int, window_count: int,
                          eta: float) -> float:
    """Per-draw probability of one window under the mixed-replay distribution."""
    selected_term = eta / selection_size if in_selection else 0.0
    return selected_term + (1.0 - eta) / window_count


def mixed_sample(
    selection: Sequence[int],
    window_count: int,
    batch_size: int,
    eta: float,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Compose a batch: floor(eta*B) draws from the selection, rest from all windows.

    Returns ``(ids, weights)``: int64 window ids for ``ReplayBuffer.gather``,
    the selection's draws first, and each id's RAW weight (1/|D|) / p, where p
    is its per-draw probability under the whole mixture, whichever stream
    drew it. Both sub-batches draw uniformly with replacement; that keeps the
    per-draw probability formula exact. Deterministic given the seed.
    """
    if window_count <= 0:
        raise ValueError("window_count must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    selection = np.asarray(selection, dtype=np.int64)
    if eta > 0.0 and not selection.size:
        raise ValueError("selection must be non-empty when eta > 0")
    if selection.size and (selection.min() < 0 or selection.max() >= window_count):
        raise ValueError("selection indices must lie inside the pool")

    rng = np.random.default_rng(seed)
    n_selected = math.floor(eta * batch_size)
    ids = np.empty(batch_size, dtype=np.int64)
    if n_selected:
        ids[:n_selected] = selection[rng.integers(0, selection.size, size=n_selected)]
    if n_selected < batch_size:
        ids[n_selected:] = rng.integers(0, window_count, size=batch_size - n_selected)

    size = max(selection.size, 1)
    in_selection = (ids[:, None] == selection).any(axis=1)
    probs = np.where(in_selection, inclusion_probability(True, size, window_count, eta),
                     inclusion_probability(False, size, window_count, eta))
    return ids, (1.0 / window_count) / probs


def normalize_weights(weights: np.ndarray, mode: WeightMode = WeightMode.RAW) -> np.ndarray:
    """RAW keeps the unbiased weights; MEAN_ONE rescales them to mean 1.

    Any weight <= 0 is rejected; a NaN is not, and does not hide one
    (``fmin`` skips NaNs).
    """
    if weights.size and np.fmin.reduce(weights, axis=None) <= 0:
        raise ValueError("batch weights must be positive")
    if mode is WeightMode.RAW or not weights.size:
        return weights
    return weights / (weights.sum() / weights.size)  # np.mean's arithmetic
