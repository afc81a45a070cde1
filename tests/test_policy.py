from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdreplay.bench import StageChainEnv, TableActor, evaluate_policy
from qdreplay.policy import LinearSoftmaxPolicy, _logsumexp_rows
from qdreplay.windows import Episode, EpisodeArrays, ReplayBuffer


def make_batch(episodes, gamma=1.0):
    """A WindowBatch holding each (states, actions, rewards) episode as one whole window."""
    buf = ReplayBuffer(capacity=1000, gamma=gamma)
    for eid, (states, actions, rewards) in enumerate(episodes):
        n = len(rewards)
        buf.append_episode(Episode(id=eid, transitions=EpisodeArrays(
            np.asarray(states, dtype=float), np.asarray(actions), np.asarray(rewards, dtype=float),
            np.zeros(n, dtype=np.int64), np.arange(n) == n - 1)))
    return buf.gather(np.arange(len(episodes)), len(episodes[0][2]))


def random_episode(rng, dim=3, horizon=4, actions=4):
    return ([rng.standard_normal(dim) for _ in range(horizon)],
            rng.integers(actions, size=horizon),
            rng.random(horizon))


def random_batch(rng, count=1, **shape):
    return make_batch([random_episode(rng, **shape) for _ in range(count)], gamma=0.9)


def test_identity_projection_encodes_raw_features():
    batch = make_batch([([[2.0, -1.0]], [0], [3.0])])
    policy = LinearSoftmaxPolicy(state_dim=2, action_count=3, feature_dim=3, seed=0)
    policy.projection = np.eye(3)
    np.testing.assert_allclose(policy.encode(batch)[0], [2.0, -1.0, 3.0])


def test_encode_is_deterministic():
    rng = np.random.default_rng(0)
    batch = random_batch(rng)
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, dropout_rate=0.5, seed=1)
    np.testing.assert_array_equal(policy.encode(batch)[0], policy.encode(batch)[0])


def test_projection_null_feature_is_invisible():
    policy = LinearSoftmaxPolicy(state_dim=2, action_count=3, feature_dim=2, seed=0)
    policy.projection = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # second state dim dropped
    a, b = policy.encode(make_batch([([[1.0, 5.0]], [0], [2.0]), ([[1.0, -8.0]], [0], [2.0])]))
    np.testing.assert_array_equal(a, b)


def test_zero_weights_give_zero_variance():
    rng = np.random.default_rng(7)
    batch = random_batch(rng, count=3)
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, dropout_rate=0.5, seed=8)
    policy.weights = np.zeros_like(policy.weights)
    np.testing.assert_array_equal(policy.predictive_variance(batch), np.zeros(3))


@pytest.mark.parametrize("rate", [0.0, 0.2, 0.5])
def test_predictive_variance_is_the_exact_law_over_every_dropout_mask(rate):
    """All 2**F masks of F = 6 features, each weighted by its probability: the
    variance trace of each window's mean logits, with no sampling."""
    rng = np.random.default_rng(21)
    batch = random_batch(rng, count=7, horizon=5, actions=4)
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, feature_dim=6, dropout_rate=rate,
                                 seed=22)
    count, horizon = batch.rtg.shape
    feats = policy._batch_features(batch)
    keep = 1.0 - rate
    probs, means = [], []
    for bits in itertools.product([0.0, 1.0], repeat=6):
        mask = np.array(bits)
        probs.append(keep ** mask.sum() * rate ** (6 - mask.sum()))
        logits = (feats * mask / keep) @ policy.weights
        means.append(logits.reshape(count, horizon, -1).mean(axis=1))
    probs, means = np.array(probs), np.stack(means)  # (2**F,), (2**F, B, A)
    assert probs.sum() == pytest.approx(1.0, rel=1e-15)
    centered = means - np.tensordot(probs, means, axes=1)
    exact = np.tensordot(probs, (centered ** 2).sum(axis=2), axes=1)
    variance = policy.predictive_variance(batch)
    assert variance.shape == (count,)
    if rate == 0.0:
        np.testing.assert_array_equal(variance, np.zeros(count))
    else:
        assert exact.min() > 0
        np.testing.assert_allclose(variance, exact, rtol=1e-12, atol=0)


def test_zero_learning_rate_leaves_parameters():
    rng = np.random.default_rng(11)
    batch = random_batch(rng, count=3)
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=12)
    before = policy.weights.ravel().copy()
    loss = policy.weighted_update(batch, [1.0, 1.0, 1.0], learning_rate=0.0)
    assert loss > 0
    np.testing.assert_array_equal(policy.weights.ravel().copy(), before)


def test_doubling_weight_doubles_the_step():
    rng = np.random.default_rng(13)
    batch = random_batch(rng)

    policy_a = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=14)
    policy_b = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=14)
    start = policy_a.weights.ravel().copy()
    policy_a.weighted_update(batch, [1.0], learning_rate=0.1)
    policy_b.weighted_update(batch, [2.0], learning_rate=0.1)
    delta_a = policy_a.weights.ravel().copy() - start
    delta_b = policy_b.weights.ravel().copy() - start
    np.testing.assert_allclose(delta_b, 2.0 * delta_a, rtol=1e-12)


def test_weight_scaling_scales_gradient_exactly():
    rng = np.random.default_rng(15)
    batch = random_batch(rng, count=2)
    for c in (0.5, 3.0):
        policy_a = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=16)
        policy_b = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=16)
        start = policy_a.weights.ravel().copy()
        policy_a.weighted_update(batch, [1.0, 2.0], learning_rate=1.0)
        policy_b.weighted_update(batch, [c * 1.0, c * 2.0], learning_rate=1.0)
        np.testing.assert_allclose(policy_b.weights.ravel().copy() - start,
                                   c * (policy_a.weights.ravel().copy() - start), rtol=1e-9)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    batch = random_batch(rng, count=3)
    weights = [0.7, 1.4, 2.1]
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=18)

    reference = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=18)
    start = reference.weights.ravel().copy()
    reference.weighted_update(batch, weights, learning_rate=1.0)
    grad = start - reference.weights.ravel().copy()  # lr=1 step equals the gradient

    step = 1e-5
    for probe in rng.choice(start.size, size=10, replace=False):
        for sign, store in ((+1, "hi"), (-1, "lo")):
            params = start.copy()
            params[probe] += sign * step
            policy.weights = params.reshape(policy.weights.shape)
            if store == "hi":
                hi = policy.batch_loss(batch, weights)
            else:
                lo = policy.batch_loss(batch, weights)
        numeric = (hi - lo) / (2 * step)
        assert abs(grad[probe] - numeric) / max(abs(numeric), 1e-8) < 1e-4


def test_loss_decreases_on_separable_batch():
    rng = np.random.default_rng(19)
    # action identity is readable from the state: separable mapping
    batch = make_batch([(np.tile(np.eye(3)[a], (4, 1)), [a] * 4, [0.0, 0.0, 0.0, 1.0])
                        for a in (0, 1, 2)])
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=3, seed=20)
    weights = [1.0, 1.0, 1.0]
    losses = [policy.weighted_update(batch, weights, learning_rate=1e-2) for _ in range(50)]
    assert losses[-1] < losses[0]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_weighted_update_rejects_bad_weights():
    rng = np.random.default_rng(21)
    batch = random_batch(rng)
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=22)
    with pytest.raises(ValueError):
        policy.weighted_update(batch, [-1.0], learning_rate=0.1)
    with pytest.raises(ValueError):
        policy.weighted_update(batch, [float("nan")], learning_rate=0.1)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
def test_weighted_update_rejects_a_bad_learning_rate_before_the_step(rate):
    """-1 would climb the loss; NaN and inf would leave non-finite weights."""
    batch = random_batch(np.random.default_rng(21))
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=22)
    before = policy.weights
    with pytest.raises(ValueError, match=f"learning_rate must be finite and >= 0, got {rate}"):
        policy.weighted_update(batch, [1.0], learning_rate=rate)
    assert policy.weights is before


def test_weighted_update_rejects_actions_beyond_action_count():
    batch = make_batch([([[1.0, 2.0, 3.0]] * 5, [99] * 5, [0.0] * 5)])
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=6, seed=24)
    before = policy.weights
    with pytest.raises(ValueError, match=r"actions must lie in \[0, 6\)"):
        policy.weighted_update(batch, [1.0], learning_rate=0.1)
    with pytest.raises(ValueError, match=r"actions must lie in \[0, 6\)"):
        policy.batch_loss(batch, [1.0])
    assert policy.weights is before


def test_weighted_update_rejects_negative_actions():
    """-1 would index the last action's logit; the buffer rejects it, a hand-built batch not."""
    batch = make_batch([([[1.0, 2.0, 3.0]] * 2, [3, 3], [0.0] * 2)])
    negative = dataclasses.replace(batch, actions=np.array([[-1, -1]]))
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=25)
    before = policy.weights
    assert np.isfinite(policy.batch_loss(batch, [1.0]))
    with pytest.raises(ValueError, match=r"actions must lie in \[0, 4\)"):
        policy.weighted_update(negative, [1.0], learning_rate=0.1)
    with pytest.raises(ValueError, match=r"actions must lie in \[0, 4\)"):
        policy.batch_loss(negative, [1.0])
    assert policy.weights is before


def test_weighted_update_rejects_actions_that_are_not_integers_of_shape_b_h():
    """Continuous actions would otherwise be truncated and train as discrete ones."""
    continuous = make_batch([([[1.0, 2.0, 3.0]] * 3, [[0.7], [1.9], [0.2]], [0.0] * 3)])
    floats = dataclasses.replace(continuous, actions=np.array([[0.0, 1.0, 0.0]]))
    flat = dataclasses.replace(continuous, actions=np.array([0, 1, 0]))
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=26)
    before = policy.weights
    for batch, got in [(continuous, r"float64 of shape \(1, 3, 1\)"),
                       (floats, r"float64 of shape \(1, 3\)"),
                       (flat, r"int64 of shape \(3,\)")]:
        message = r"actions must be integers of shape \(1, 3\), got " + got
        with pytest.raises(ValueError, match=message):
            policy.weighted_update(batch, [1.0], learning_rate=0.1)
        with pytest.raises(ValueError, match=message):
            policy.batch_loss(batch, [1.0])
    assert policy.weights is before
    discrete = dataclasses.replace(continuous, actions=np.array([[0, 1, 0]]))
    assert np.isfinite(policy.batch_loss(discrete, [1.0]))


def test_state_dim_mismatch_rejected():
    batch = make_batch([([[1.0, 2.0, 3.0]], [0], [1.0])])
    policy = LinearSoftmaxPolicy(state_dim=2, action_count=3, seed=23)
    with pytest.raises(ValueError, match="dim mismatch"):
        policy.encode(batch)


def reference_update(policy, windows, weights, learning_rate):
    """weighted_update as a loop over windows: features are projected one window at a time."""
    feats = np.vstack([np.hstack([w.states, w.rtg[:, None]]) @ policy.projection.T
                       for w in windows])
    targets = np.concatenate([np.asarray(w.actions, dtype=int) for w in windows])
    step_w = np.concatenate([np.full(w.horizon, float(x)) for w, x in zip(windows, weights)])
    logits = feats @ policy.weights
    logz = _logsumexp_rows(logits)
    loss = float(np.dot(step_w, logz - logits[np.arange(len(targets)), targets]))
    probs = np.exp(logits - logz[:, None])
    probs[np.arange(len(targets)), targets] -= 1.0
    grad = feats.T @ (probs * step_w[:, None])
    policy.weights = policy.weights - learning_rate * grad
    return loss


@pytest.mark.parametrize("horizon", [1, 2, 3, 8])
@pytest.mark.parametrize("count", [1, 5, 32])
def test_batched_update_matches_per_window_loop(horizon, count):
    rng = np.random.default_rng(100 * horizon + count)
    batch = random_batch(rng, count=count, dim=8, horizon=horizon, actions=6)
    weights = rng.uniform(0.5, 2.0, size=count)
    batched = LinearSoftmaxPolicy(state_dim=8, action_count=6, seed=27)
    looped = LinearSoftmaxPolicy(state_dim=8, action_count=6, seed=27)
    loss = batched.weighted_update(batch, weights, learning_rate=0.1)
    windows = [batch[b] for b in range(count)]
    reference = reference_update(looped, windows, weights, learning_rate=0.1)
    if horizon >= 2:  # the same BLAS kernels run, so the bits match
        assert loss == reference
        np.testing.assert_array_equal(batched.weights, looped.weights)
    else:  # a single-row product takes BLAS's vector path: rounding differs
        assert loss == pytest.approx(reference, rel=1e-12)
        np.testing.assert_allclose(batched.weights, looped.weights, rtol=1e-12, atol=1e-15)


# ------------------------------------------------------------------------ act

def _logsumexp(x):
    m = np.max(x)
    return float(m + np.log(np.sum(np.exp(x - m))))


def reference_act(policy, state, rtg, rng=None, greedy=False):
    """One projection and softmax for one state, sampled by ``rng.choice``."""
    logits = policy.weights.T @ policy.state_features(state, rtg)
    if greedy or rng is None:
        return int(np.argmax(logits))
    probs = np.exp(logits - _logsumexp(logits))
    return int(rng.choice(policy.action_count, p=probs / probs.sum()))


def table_of(policy, states, rtgs):
    """``action_table`` of the given states, each at its own rtg."""
    return policy.action_table(np.array([policy.state_features(state, rtg)
                                         for state, rtg in zip(states, rtgs)]))


def table_act(cdf, position, rng):
    """The action a ``TableActor`` over ``cdf`` draws at ``position``."""
    return TableActor(SimpleNamespace(position=position), cdf).act(rng)


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.floats(1e-3, 1.0) | st.sampled_from([5e-324, 1e-300, 1e-17, 1e-9]),
                  min_size=2, max_size=8),
       seed=st.integers(0, 2 ** 63 - 1))
def test_sampled_act_draws_as_rng_choice(p, seed):
    """Same action as rng.choice(A, p) and the same generator state after it."""
    count = len(p)
    policy = LinearSoftmaxPolicy(state_dim=count, action_count=count, feature_dim=count, seed=0)
    policy.projection = np.eye(count, count + 1)
    policy.weights = np.eye(count)
    state = np.log(p)  # the logits, so the softmax is p normalised
    greedy, cdf = table_of(policy, [state], [0.0])
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert table_act(cdf, 0, ours) == reference_act(policy, state, 0.0, rng=theirs)
        assert ours.random() == theirs.random()
    assert greedy[0] == reference_act(policy, state, 0.0, greedy=True)


@settings(max_examples=100, deadline=None)
@given(p=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8))
def test_action_probabilities_are_the_softmax_that_act_samples(p):
    count = len(p)
    policy = LinearSoftmaxPolicy(state_dim=count, action_count=count, feature_dim=count, seed=0)
    policy.projection = np.eye(count, count + 1)
    policy.weights = np.eye(count)
    cdf = table_of(policy, [np.log(p)], [0.0])[1]
    probs = np.diff(cdf[0], prepend=0.0)  # as evaluate_policy reads them
    np.testing.assert_allclose(probs, np.array(p) / sum(p), rtol=1e-12, atol=1e-15)
    # A draw in the middle of an action's share of [0, 1) picks that action.
    middles = np.cumsum(probs) - probs / 2
    for action, middle in enumerate(middles):
        class Draw:
            def random(self):
                return middle
        assert table_act(cdf, 0, Draw()) == action


def test_act_rejects_non_finite_probabilities():
    policy = LinearSoftmaxPolicy(state_dim=2, action_count=3, seed=45)
    policy.weights = np.full_like(policy.weights, np.nan)
    cdf = table_of(policy, [np.ones(2)], [1.0])[1]
    with pytest.raises(ValueError, match="not finite"):
        table_act(cdf, 0, np.random.default_rng(0))
    env = StageChainEnv(num_stages=1, steps_per_stage=(2,), action_count=3)
    with pytest.raises(ValueError, match="not finite"):
        evaluate_policy(env, *table_of(policy, env.chain_states(), [1.0, 1.0]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batched_rows_have_the_bits_of_one_row(data):
    """Each row of one table over K states is the 1-D arithmetic on its state alone."""
    rows = data.draw(st.integers(1, 64), label="rows")
    actions = data.draw(st.integers(2, 12), label="actions")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    policy = LinearSoftmaxPolicy(state_dim=5, action_count=actions, seed=seed)
    policy.weights = 10.0 ** data.draw(st.integers(-3, 3), label="scale") * rng.standard_normal(
        policy.weights.shape)
    states = rng.standard_normal((rows, 5))
    greedy, table = table_of(policy, states, [1.0] * rows)
    assert greedy.shape == (rows,) and table.shape == (rows, actions)
    for state, action, batched_cdf in zip(states, greedy, table):
        logits = policy.weights.T @ policy.state_features(state, 1.0)
        probs = np.exp(logits - _logsumexp(logits))
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        assert action == int(np.argmax(logits)) and np.isfinite(batched_cdf).all()
        assert batched_cdf.tobytes() == cdf.tobytes()


@pytest.mark.parametrize("bad_first", [False, True])
def test_a_non_finite_row_raises_only_for_its_own_state(bad_first):
    # Identity features and logits: the state is the logit vector, scaled by the weights.
    policy = LinearSoftmaxPolicy(state_dim=2, action_count=2, feature_dim=2, seed=0)
    policy.projection = np.eye(2, 3)
    policy.weights = 1e10 * np.eye(2)  # big's logit overflows to inf, ordinary's does not
    big, ordinary = np.array([1e300, 0.0]), np.array([0.5, -0.5])
    states = [big, ordinary] if bad_first else [ordinary, big]
    greedy, cdf = table_of(policy, states, [0.0, 0.0])
    actor = TableActor(SimpleNamespace(position=0), cdf)
    for position in [0, 1, 0, 1]:
        actor.env.position = position
        if states[position] is big:
            with pytest.raises(ValueError, match="not finite"):
                actor.act(np.random.default_rng(3))
            continue
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        assert actor.act(ours) == reference_act(policy, ordinary, 0.0, rng=theirs)
        assert greedy[position] == 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_act_matches_the_unmemoised_act_across_rebinds(data):
    """Interleaved new states, repeated states, rebinds, greedy and sampled acts."""
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    actions = data.draw(st.integers(2, 6), label="actions")
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=actions, seed=seed)
    batch = random_batch(rng, count=4, actions=actions)
    states = [rng.standard_normal(3)]
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    def act(index, greedy):
        # One table over every state so far, each at its own rtg.
        rtgs = [float(i % 2) for i in range(len(states))]
        greedy_actions, cdf = table_of(policy, states, rtgs)
        state, rtg = states[index], rtgs[index]
        if greedy:
            assert greedy_actions[index] == reference_act(policy, state, rtg, greedy=True)
        else:
            assert table_act(cdf, index, ours) == reference_act(policy, state, rtg, rng=theirs)
            assert ours.random() == theirs.random()

    def rebind(how):
        if how == "update":
            policy.weighted_update(batch, rng.uniform(0.5, 2.0, 4), learning_rate=5.0)
        else:
            policy.weights = rng.standard_normal(policy.weights.shape)

    act(0, greedy=False)
    rebind(data.draw(st.sampled_from(["update", "assign"]), label="first rebind"))
    act(0, greedy=data.draw(st.booleans(), label="first greedy"))
    ops = st.one_of(
        st.tuples(st.just("new"), st.booleans()),
        st.tuples(st.just("repeat"), st.booleans()),
        st.tuples(st.just("rebind"), st.sampled_from(["update", "assign"])),
    )
    for op, arg in data.draw(st.lists(ops, max_size=40), label="ops"):
        if op == "new":
            states.append(rng.standard_normal(3))
            act(len(states) - 1, greedy=arg)
        elif op == "repeat":
            act(data.draw(st.integers(0, len(states) - 1), label="index"), greedy=arg)
        else:
            rebind(arg)


def _row_max_logsumexp(x):
    """The row logsumexp with the row max taken along axis 1, written out."""
    m = x.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).ravel()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_logsumexp_rows_matches_the_row_max_formula_bit_for_bit(data):
    actions = data.draw(st.integers(2, 16), label="actions")
    rows = data.draw(st.integers(1, 300), label="rows")
    values = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 2.5, -2.5, 1e3, -1e3])
    x = data.draw(hnp.arrays(np.float64, (rows, actions), elements=values), label="x")
    if data.draw(st.booleans(), label="fortran order"):
        x = np.asfortranarray(x)
    assert _logsumexp_rows(x).tobytes() == _row_max_logsumexp(x).tobytes()


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1e-300, 1.0])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_weighted_update_weight_check_matches_the_mask_expression(data):
    shape = data.draw(st.sampled_from([(), (0,), (2,), (3,), (4,), (3, 1), (1, 3)]), label="shape")
    weights = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3) | _SPECIAL),
                        label="weights")
    batch = random_batch(np.random.default_rng(0), count=3)
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=0)
    old_rejects = not np.isfinite(weights).all() or (weights <= 0).any()  # the check as it was
    try:
        policy.weighted_update(batch, weights, learning_rate=0.0)
        message = None
    except ValueError as exc:
        message = str(exc)
    if old_rejects:
        assert message == "weights must be positive and finite"
    elif shape != (3,):
        assert message == f"expected 3 weights, got shape {shape}"
    else:
        assert message is None


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 6))
def test_batch_terms_gradient_is_the_written_out_formula(seed, count):
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, count=count)
    policy = LinearSoftmaxPolicy(state_dim=3, action_count=4, seed=seed)
    weights = rng.random(count) + 0.1
    loss, feats, dlogits = policy._batch_terms(batch, weights)
    # The gradient in the logits, op for op as a fresh array: softmax minus the one-hot, weighted.
    taken = (np.arange(4 * count), batch.actions.ravel())
    step_w = np.repeat(weights, 4)
    logits = feats @ policy.weights
    probs = np.exp(logits - _logsumexp_rows(logits)[:, None])
    probs[taken] -= 1.0
    assert dlogits.tobytes() == (probs * step_w[:, None]).tobytes()
    assert loss == float(np.dot(step_w, _logsumexp_rows(logits) - logits[taken]))
