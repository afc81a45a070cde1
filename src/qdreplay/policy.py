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
    clears the memo of ``act``. The projected features of each (state, rtg)
    that ``act`` has seen outlive a rebind, since ``projection`` is fixed.
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
        # act's stores, keyed by (state bytes, rtg): projected features of each
        # key seen, (greedy action, CDF) of each key acted on under ``weights``,
        # and the hot set, the keys that the last weights to act acted on.
        self._features: dict[tuple[bytes, float], np.ndarray] = {}
        self._act_memo: dict[tuple[bytes, float], tuple[int, np.ndarray]] = {}
        self._hot: dict[tuple[bytes, float], tuple[int, np.ndarray]] = {}
        self.weights = 0.1 * rng.standard_normal((self.feature_dim, self.action_count))

    @property
    def weights(self) -> np.ndarray:
        """Feature-to-logit matrix, (feature_dim, action_count)."""
        return self._weights

    @weights.setter
    def weights(self, value: np.ndarray) -> None:
        self._weights = value
        if self._act_memo:  # weights that never acted leave the hot set as it was
            self._hot = self._act_memo
        self._act_memo = {}
        self._filled: dict | None = None  # the hot set's rows, made at the first miss

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
        ``ACT_CACHE_SIZE`` entries, oldest out first. The first miss after a
        rebind computes the rows of every key the last acting weights acted
        on, and its own, in one batched pass; a later miss outside that hot
        set gets a one-row pass. A row whose probabilities are not finite
        raises only when its own state is acted on. A sampled action takes
        one ``rng.random()`` and inverts the softmax CDF at it, which is the
        draw ``rng.choice(action_count, p=probs)`` makes: the same action and
        the same generator state afterwards.
        """
        action, cdf = self._memo_entry(state, rtg)
        if greedy or rng is None:
            return action
        return int(cdf.searchsorted(rng.random(), side="right"))

    def action_probabilities(self, state: np.ndarray, rtg: float) -> np.ndarray:
        """The distribution that a sampled ``act`` draws from, (action_count,).

        ``act`` picks action a when its uniform draw lies in [cdf[a-1], cdf[a]),
        so each probability is a difference of that memoised CDF.
        """
        return np.diff(self._memo_entry(state, rtg)[1], prepend=0.0)

    def _memo_entry(self, state: np.ndarray, rtg: float) -> tuple[int, np.ndarray]:
        key = (np.asarray(state, dtype=float).tobytes(), float(rtg))
        entry = self._act_memo.get(key)
        return entry if entry is not None else self._first_act(key, state)

    def _first_act(self, key: tuple[bytes, float], state: np.ndarray) -> tuple[int, np.ndarray]:
        """Memo entry for a key not yet acted on under these weights."""
        feats = self._features_of(key, state)
        if self._filled is None:
            hot = [k for k in self._hot if k != key]
            hot_feats = [self._features_of(k, np.frombuffer(k[0])) for k in hot]
            self._filled = self._act_rows(hot + [key], hot_feats + [feats])
            self._hot = {}
        row = self._filled.pop(key, None)
        if row is None:
            row = self._act_rows([key], [feats])[key]
        action, cdf, finite = row
        if not finite:
            raise ValueError("action probabilities are not finite")
        return _put(self._act_memo, key, (action, cdf))

    def _features_of(self, key: tuple[bytes, float], state: np.ndarray) -> np.ndarray:
        feats = self._features.get(key)
        if feats is None:
            feats = _put(self._features, key, self.state_features(state, key[1]))
        return feats

    def _act_rows(self, keys: list, feats: list) -> dict:
        """(greedy action, softmax CDF, finite) per key, by one pass over a (K, A) array.

        Each row's logits are one ``weights.T @ features`` GEMV, stacked by
        ``np.matmul``, and the rest is row-wise, so every row has the bits of
        the same arithmetic on its state alone. A row that overflows warns
        nothing here: only acting on its state raises.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            logits = np.matmul(self._weights.T, np.array(feats)[:, :, None])[:, :, 0]
            probs = np.exp(logits - _logsumexp_rows(logits)[:, None])
            probs /= probs.sum(axis=1, keepdims=True)
            cdf = probs.cumsum(axis=1)
            cdf /= cdf[:, -1:]
        rows = zip(logits.argmax(axis=1).tolist(), cdf, np.isfinite(cdf).all(axis=1).tolist())
        return dict(zip(keys, rows))

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
        try:
            picked = logits[taken]
        except IndexError as exc:
            raise ValueError(f"actions must lie in [0, {self.action_count})") from exc
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


def _put(store: dict, key, value):
    """``store[key] = value``, first evicting the oldest entry at ``ACT_CACHE_SIZE``."""
    if len(store) >= ACT_CACHE_SIZE:
        del store[next(iter(store))]
    store[key] = value
    return value


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    # Row max down a transposed copy's contiguous axis: exact, and m + log(sum) drops a zero's sign.
    m = np.ascontiguousarray(x.T).max(axis=0)[:, None]
    return (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).ravel()
