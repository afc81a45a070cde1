"""Pluggable sequence-policy interface and a toy linear-softmax instantiation."""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from .windows import WindowBatch

ACT_CACHE_SIZE = 4096  # most (state, rtg) entries LinearSoftmaxPolicy.act keeps


class SequencePolicy(Protocol):
    """What the selection pipeline needs from a policy model.

    ``encode`` and ``predict_mean`` score a batch of B windows at once and
    return one row per window, (B, f) and (B, A). ``encode`` must be
    deterministic; ``predict_mean`` must be deterministic per (window,
    pass_seed) but may vary across pass seeds.
    """

    def encode(self, batch: WindowBatch) -> np.ndarray: ...

    def predict_mean(self, batch: WindowBatch, pass_seed) -> np.ndarray: ...

    def weighted_update(
        self, batch: WindowBatch, weights: Sequence[float], learning_rate: float
    ) -> float: ...


class LinearSoftmaxPolicy:
    """Linear-softmax sequence model over per-step (state, rtg) features.

    A fixed seeded projection maps each step's concatenated (state, rtg)
    vector to ``feature_dim`` latent features; a trainable matrix maps
    features to action logits. The window embedding is the mean of the
    projected step features (dropout disabled), so embeddings do not drift
    as the logit weights train.

    ``weights`` is only ever rebound, never written in place: rebinding it
    clears the memo of ``act``.
    """

    def __init__(
        self,
        state_dim: int,
        action_count: int,
        feature_dim: int = 16,
        dropout_rate: float = 0.1,
        seed: int | np.random.SeedSequence = 0,
        projection: np.ndarray | None = None,
    ):
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        if action_count < 2:
            raise ValueError("need at least two discrete actions")
        self.state_dim = int(state_dim)
        self.action_count = int(action_count)
        self.dropout_rate = float(dropout_rate)
        in_dim = self.state_dim + 1  # state features plus the step's return-to-go
        rng = np.random.default_rng(seed)
        if projection is None:
            self.projection = rng.standard_normal((feature_dim, in_dim)) / np.sqrt(in_dim)
        else:
            self.projection = np.asarray(projection, dtype=float)
            if self.projection.shape[1] != in_dim:
                raise ValueError(
                    f"projection expects {self.projection.shape[1]} inputs, windows provide {in_dim}"
                )
        self.feature_dim = self.projection.shape[0]
        self.weights = 0.1 * rng.standard_normal((self.feature_dim, self.action_count))

    @property
    def weights(self) -> np.ndarray:
        """Feature-to-logit matrix, (feature_dim, action_count)."""
        return self._weights

    @weights.setter
    def weights(self, value: np.ndarray) -> None:
        self._weights = value
        self._act_memo: dict[tuple[bytes, float], tuple[int, np.ndarray]] = {}

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

    def act(self, state: np.ndarray, rtg: float, rng: np.random.Generator | None = None,
            greedy: bool = False) -> int:
        """The argmax action if ``greedy`` or no ``rng``, else one drawn from the softmax.

        Memoised per (state, rtg) until ``weights`` is rebound, at most
        ``ACT_CACHE_SIZE`` entries, oldest out first. A sampled action takes
        one ``rng.random()`` and inverts the softmax CDF at it, which is the
        draw ``rng.choice(action_count, p=probs)`` makes: the same action and
        the same generator state afterwards.
        """
        key = (np.asarray(state, dtype=float).tobytes(), float(rtg))
        memo = self._act_memo
        entry = memo.get(key)
        if entry is None:
            logits = self._weights.T @ self.state_features(state, rtg)
            probs = np.exp(logits - _logsumexp(logits))
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            if not np.isfinite(cdf).all():
                raise ValueError("action probabilities are not finite")
            if len(memo) >= ACT_CACHE_SIZE:
                del memo[next(iter(memo))]
            entry = memo[key] = (int(np.argmax(logits)), cdf)
        action, cdf = entry
        if greedy or rng is None:
            return action
        return int(cdf.searchsorted(rng.random(), side="right"))

    # ---------------------------------------------------------------- training

    def _batch_terms(self, batch: WindowBatch, weights: np.ndarray):
        """One forward pass: the weighted NLL of the taken actions, the step
        features (B*H, feature_dim) and the NLL's gradient in the logits."""
        count, horizon = batch.rtg.shape
        feats = self._batch_features(batch)
        if weights.shape != (count,):
            raise ValueError(f"expected {count} weights, got shape {weights.shape}")
        taken = (np.arange(count * horizon), np.asarray(batch.actions, dtype=int).ravel())
        step_w = np.repeat(weights, horizon)
        logits = feats @ self.weights
        logz = _logsumexp_rows(logits)
        loss = float(np.dot(step_w, logz - logits[taken]))
        probs = np.exp(logits - logz[:, None])
        probs[taken] -= 1.0
        return loss, feats, probs * step_w[:, None]

    def batch_loss(self, batch: WindowBatch, weights: Sequence[float]) -> float:
        """Weighted negative log-likelihood of the taken actions."""
        if len(batch) == 0:
            return 0.0
        return self._batch_terms(batch, np.asarray(weights, dtype=float))[0]

    def weighted_update(
        self, batch: WindowBatch, weights: Sequence[float], learning_rate: float
    ) -> float:
        """One gradient-descent step on the weighted NLL; returns pre-step loss."""
        if len(batch) == 0:
            return 0.0
        w = np.asarray(weights, dtype=float)
        if not np.isfinite(w).all() or (w <= 0).any():
            raise ValueError("weights must be positive and finite")
        loss, feats, dlogits = self._batch_terms(batch, w)
        grad = feats.T @ dlogits
        if not np.isfinite(grad).all():
            raise ValueError("non-finite gradient in weighted_update")
        self.weights = self.weights - learning_rate * grad
        return loss


def _logsumexp(x: np.ndarray) -> float:
    m = np.max(x)
    return float(m + np.log(np.sum(np.exp(x - m))))


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    # Row max down a transposed copy's contiguous axis: exact, and m + log(sum) drops a zero's sign.
    m = np.ascontiguousarray(x.T).max(axis=0)[:, None]
    return (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).ravel()
