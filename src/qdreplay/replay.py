"""Debiased mixed replay: batch composition, inclusion probabilities, weights."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np


class Source(Enum):
    SELECTED = "SELECTED"
    GLOBAL = "GLOBAL"


class WeightMode(Enum):
    RAW = "RAW"            # unbiased estimator
    MEAN_ONE = "MEAN_ONE"  # self-normalized, lower variance


@dataclass(frozen=True)
class MixedBatch:
    """Sampled window indices with per-entry mixture probabilities and weights.

    ``probabilities[i]`` is the total per-draw probability of the entry's
    window under the selected/global mixture, independent of which stream
    actually produced it; ``weights[i]`` is (1/|D|) / p_i.
    """

    entries: list[tuple[int, Source]]
    eta: float
    probabilities: np.ndarray
    weights: np.ndarray
    selection_size: int
    pool_size: int

    def __len__(self) -> int:
        return len(self.entries)


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
    per-draw probability formula exact. Deterministic given the seed.
    """
    if pool_size <= 0:
        raise ValueError("pool_size must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    selection = [int(i) for i in selection]
    if eta > 0.0 and not selection:
        raise ValueError("selection must be non-empty when eta > 0")
    if any(not 0 <= i < pool_size for i in selection):
        raise ValueError("selection indices must lie inside the pool")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_selected = math.floor(eta * batch_size)
    n_global = batch_size - n_selected

    entries: list[tuple[int, Source]] = []
    if n_selected:
        picks = rng.integers(0, len(selection), size=n_selected)
        entries.extend((selection[p], Source.SELECTED) for p in picks)
    if n_global:
        picks = rng.integers(0, pool_size, size=n_global)
        entries.extend((int(p), Source.GLOBAL) for p in picks)

    in_y = set(selection)
    probs = np.array([
        inclusion_probability(idx in in_y, max(len(selection), 1), pool_size, eta)
        for idx, _ in entries
    ])
    weights = (1.0 / pool_size) / probs
    return MixedBatch(
        entries=entries,
        eta=float(eta),
        probabilities=probs,
        weights=weights,
        selection_size=len(selection),
        pool_size=pool_size,
    )


def normalize_weights(batch: MixedBatch, mode: WeightMode = WeightMode.RAW) -> MixedBatch:
    """RAW keeps the unbiased weights; MEAN_ONE rescales to batch-mean 1."""
    if np.any(batch.weights <= 0):
        raise ValueError("batch weights must be positive")
    if mode is WeightMode.RAW or len(batch) == 0:
        return batch
    return replace(batch, weights=batch.weights / batch.weights.mean())


def estimate_uniform_mean(
    f: Callable[[int], float] | Sequence[float],
    selection: Sequence[int],
    pool_size: int,
    batch_size: int,
    eta: float,
    trials: int,
    seed,
) -> float:
    """RAW-weighted Monte Carlo estimate of the uniform pool mean of f.

    Debiasing check helper: averages omega_i * f(i) over ``trials`` batches,
    which converges to mean(f) over the whole pool.
    """
    values = f if callable(f) else np.asarray(f, dtype=float).__getitem__
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    total = 0.0
    count = 0
    for _ in range(trials):
        batch = mixed_sample(selection, pool_size, batch_size, eta, rng)
        total += sum(w * values(idx) for w, (idx, _) in zip(batch.weights, batch.entries))
        count += len(batch)
    return total / count
