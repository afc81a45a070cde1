"""A linear-softmax sequence policy over per-step (state, rtg) features."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .windows import WindowBatch


class LinearSoftmaxPolicy:
    """Linear-softmax sequence model over per-step (state, rtg) features.

    A fixed seeded projection maps each step's concatenated (state, rtg)
    vector to ``feature_dim`` latent features; a trainable matrix maps
    features to action logits. The window embedding is the mean of the
    projected step features (dropout disabled), so embeddings do not drift
    as the logit weights train.

    ``encode`` and ``predict_mean`` score a batch of B windows at once and
    return one row per window, (B, feature_dim) and (B, A). ``encode`` is
    deterministic; ``predict_mean`` is deterministic per (window, pass_seed)
    and varies across pass seeds.
    """

    def __init__(
        self,
        state_dim: int,
        action_count: int,
        feature_dim: int = 16,
        dropout_rate: float = 0.1,
        seed: int | np.random.SeedSequence = 0,
    ):
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        if action_count < 2:
            raise ValueError("need at least two discrete actions")
        self.state_dim = int(state_dim)
        self.action_count = int(action_count)
        self.feature_dim = int(feature_dim)
        self.dropout_rate = float(dropout_rate)
        in_dim = self.state_dim + 1  # state features plus the step's return-to-go
        rng = np.random.default_rng(seed)
        self.projection = rng.standard_normal((self.feature_dim, in_dim)) / np.sqrt(in_dim)
        # Feature-to-logit matrix, (feature_dim, action_count).
        self.weights = 0.1 * rng.standard_normal((self.feature_dim, self.action_count))

    # ---------------------------------------------------------------- features

    def _batch_features(self, batch: WindowBatch) -> np.ndarray:
        """Projected features of all B*H steps, (B*H, feature_dim), by one matmul."""
        count, horizon, dim = batch.states.shape
        if dim != self.state_dim:
            raise ValueError(
                f"state dim mismatch: policy expects {self.state_dim}, batch has {dim}"
            )
        inputs = np.concatenate([batch.states, batch.rtg[:, :, None]], axis=2)
        return inputs.reshape(count * horizon, dim + 1) @ self.projection.T

    def encode(self, batch: WindowBatch) -> np.ndarray:
        """Deterministic window embeddings, (B, feature_dim): mean of projected step features."""
        count, horizon = batch.rtg.shape
        return self._batch_features(batch).reshape(count, horizon, -1).mean(axis=1)

    def state_features(self, state: np.ndarray, rtg: float) -> np.ndarray:
        x = np.concatenate([np.asarray(state, dtype=float), [float(rtg)]])
        return self.projection @ x

    # ---------------------------------------------------------------- stochastic pass

    def _dropout_mask(self, pass_seed) -> np.ndarray:
        rng = np.random.default_rng(pass_seed)
        keep = 1.0 - self.dropout_rate
        return (rng.random(self.feature_dim) < keep).astype(float) / keep

    def predict_mean(self, batch: WindowBatch, pass_seed) -> np.ndarray:
        """Mean action-logit vector of each window under one dropout mask, (B, A).

        The mask is a seeded Bernoulli(1 - dropout_rate) draw over latent
        features with inverted scaling, shared across every step of the batch.
        """
        feats = self._batch_features(batch)
        if self.dropout_rate > 0.0:
            feats = feats * self._dropout_mask(pass_seed)
        count, horizon = batch.rtg.shape
        return (feats @ self.weights).reshape(count, horizon, -1).mean(axis=1)

    # ---------------------------------------------------------------- acting

    def action_table(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Greedy actions (K,) and softmax CDFs (K, A) of K rows of ``state_features``.

        Each row's logits are one ``weights.T @ features`` GEMV, stacked by
        ``np.matmul``, and the rest is row-wise, so every row has the bits of
        the same arithmetic on its state alone. A row that overflows warns
        nothing here; its CDF is not finite, and acting on it must raise.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            logits = np.matmul(self.weights.T, np.asarray(features)[:, :, None])[:, :, 0]
            probs = np.exp(logits - _logsumexp_rows(logits)[:, None])
            probs /= probs.sum(axis=1, keepdims=True)
            cdf = probs.cumsum(axis=1)
            cdf /= cdf[:, -1:]
        return logits.argmax(axis=1), cdf

    # ---------------------------------------------------------------- training

    def _batch_terms(self, batch: WindowBatch, weights: np.ndarray):
        """One forward pass: the weighted NLL of the taken actions, the step
        features (B*H, feature_dim) and the NLL's gradient in the logits."""
        count, horizon = batch.rtg.shape
        feats = self._batch_features(batch)
        if weights.shape != (count,):
            raise ValueError(f"expected {count} weights, got shape {weights.shape}")
        actions = np.asarray(batch.actions)
        if actions.shape != (count, horizon) or not np.issubdtype(actions.dtype, np.integer):
            raise ValueError(f"actions must be integers of shape {(count, horizon)}, "
                             f"got {actions.dtype} of shape {actions.shape}")
        actions = actions.ravel()
        if actions.size and not 0 <= actions.min() <= actions.max() < self.action_count:
            raise ValueError(f"actions must lie in [0, {self.action_count})")
        taken = (np.arange(count * horizon), actions)
        step_w = np.repeat(weights, horizon)
        logits = feats @ self.weights
        logz = _logsumexp_rows(logits)
        picked = logits[taken]
        loss = float(np.dot(step_w, logz - picked))
        logits -= logz[:, None]  # the logits become the gradient in place, op for op
        dlogits = np.exp(logits, out=logits)
        dlogits[taken] -= 1.0
        dlogits *= step_w[:, None]
        return loss, feats, dlogits

    def batch_loss(self, batch: WindowBatch, weights: Sequence[float]) -> float:
        """Weighted negative log-likelihood of the taken actions."""
        if len(batch) == 0:
            return 0.0
        return self._batch_terms(batch, np.asarray(weights, dtype=float))[0]

    def weighted_update(
        self, batch: WindowBatch, weights: Sequence[float], learning_rate: float
    ) -> float:
        """One gradient-descent step on the weighted NLL; returns pre-step loss."""
        if not 0.0 <= learning_rate < np.inf:  # NaN fails both comparisons
            raise ValueError(f"learning_rate must be finite and >= 0, got {learning_rate}")
        if len(batch) == 0:
            return 0.0
        w = np.asarray(weights, dtype=float)
        # A NaN fails the min's comparison, so the check rejects it like any weight <= 0.
        if w.size and not (w.min() > 0.0 and w.max() < np.inf):
            raise ValueError("weights must be positive and finite")
        loss, feats, dlogits = self._batch_terms(batch, w)
        grad = feats.T @ dlogits
        if not np.isfinite(grad).all():
            raise ValueError("non-finite gradient in weighted_update")
        self.weights = self.weights - learning_rate * grad
        return loss


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    # Row max down a transposed copy's contiguous axis: exact, and m + log(sum) drops a zero's sign.
    m = np.ascontiguousarray(x.T).max(axis=0)[:, None]
    return (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).ravel()
