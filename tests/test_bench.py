from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdreplay.bench import (
    ABLATION_COLUMNS,
    LoopConfig,
    RandomPolicy,
    ScriptedDemonstrator,
    StageChainEnv,
    TableActor,
    Variant,
    diversity_metric,
    evaluate_policy,
    mean_and_ci,
    redundancy_metric,
    rollout,
    run_ablation,
    run_loop,
    select_windows,
)
from qdreplay.geometry import median_bandwidth, rbf_similarity
from qdreplay.kernels import greedy_map, log_det
from qdreplay.policy import LinearSoftmaxPolicy
from qdreplay.scoring import composite_quality
from qdreplay.windows import Episode, NoValidWindowsError, ReplayBuffer


TINY = LoopConfig(
    horizon=5,
    pool_size=10,
    subset_size=2,
    refresh_period=4,
    batch_size=8,
    episodes=4,
    warmup_episodes=6,
    pretrain_steps=20,
    updates_per_episode=2,
    eval_every=2,
    eval_episodes=5,
    num_stages=3,
    steps_per_stage=(4, 4, 2),
    action_count=4,
    t_max=20,
)


# ------------------------------------------------------------------------- env

def test_episode_ends_on_success_or_horizon():
    env = StageChainEnv(num_stages=2, steps_per_stage=(2, 2), action_count=3,
                        noise=0.0, t_max=10)
    rng = np.random.default_rng(0)

    class Oracle:
        def act(self, rng):
            return env.correct_action(int(np.argmax(env.observation()[:2])))

    steps, success = rollout(env, Oracle(), rng)
    assert success
    assert len(steps) == 4  # exactly the stage lengths, no slack used
    assert steps.done.tolist() == [False, False, False, True]
    assert steps.rewards.tolist() == [0.0, 0.0, 0.0, 1.0]

    steps, success = rollout(env, RandomPolicy(3), np.random.default_rng(1))
    assert len(steps) <= 10
    assert steps.done[-1] and not steps.done[:-1].any()


def test_transitions_carry_ground_truth_stage():
    env = StageChainEnv(num_stages=2, steps_per_stage=(2, 2), action_count=3,
                        noise=0.0, t_max=10)

    class Oracle:
        def act(self, rng):
            return env.correct_action(int(np.argmax(env.observation()[:2])))

    steps, _ = rollout(env, Oracle(), np.random.default_rng(0))
    assert steps.stages.tolist() == [0, 0, 1, 1]


def _one_hot(actions, action_count: int) -> np.ndarray:
    return np.eye(action_count)[np.asarray(actions)]


def test_oracle_policy_scores_perfect_success():
    env = StageChainEnv(num_stages=3, steps_per_stage=(3, 3, 2), action_count=4,
                        noise=0.0, t_max=20)
    demonstrator, rng = ScriptedDemonstrator(env, epsilon=0.0), np.random.default_rng(0)
    actions = []
    for position in range(len(env.chain_states())):
        env.position = position
        actions.append(demonstrator.act(rng))
    rows = _one_hot(actions, 4)
    assert env.success_probability(rows) == 1.0
    short = StageChainEnv(num_stages=3, steps_per_stage=(3, 3, 2), action_count=4,
                          noise=0.0, t_max=7)  # one step fewer than the chain is long
    assert short.success_probability(rows) == 0.0


def test_success_probability_rejects_rows_of_the_wrong_shape():
    env = StageChainEnv(num_stages=2, steps_per_stage=(2, 2), action_count=3)
    with pytest.raises(ValueError, match="shape"):
        env.success_probability(np.full((3, 3), 1 / 3))
    with pytest.raises(ValueError, match="shape"):
        env.success_probability(np.full((4, 4), 1 / 4))


def _absorption_probability(total_steps: int, p: float, horizon: int) -> float:
    """Forward iteration of the progress Markov chain, absorbing at completion."""
    probs = np.zeros(total_steps + 1)
    probs[0] = 1.0
    for _ in range(horizon):
        nxt = np.zeros_like(probs)
        nxt[total_steps] = probs[total_steps]
        for r in range(total_steps):
            nxt[r] += probs[r] * (1 - p)
            nxt[r + 1] += probs[r] * p
        probs = nxt
    return float(probs[total_steps])


def test_random_policy_matches_markov_chain_oracle():
    env = StageChainEnv(num_stages=2, steps_per_stage=(2, 2), action_count=3,
                        noise=0.1, t_max=8)
    # uniform-random commanded actions stay uniform after slip, so progress
    # probability is 1/|A| per step regardless of stage
    expected = _absorption_probability(total_steps=4, p=1 / 3, horizon=8)
    assert env.success_probability(np.full((4, 3), 1 / 3)) == pytest.approx(expected, abs=1e-12)


class _ScriptedSlip:
    """The generator of one ``step``: no slip if ``slip_to`` is None, else a slip to it."""

    def __init__(self, slip_to):
        self.slip_to = slip_to

    def random(self) -> float:
        return 0.0 if self.slip_to is not None else 1.0

    def integers(self, high) -> int:
        return self.slip_to


def _enumerated_success(env: StageChainEnv, actions) -> float:
    """Success probability summed over every sequence of slip outcomes.

    Each path replays the environment from ``reset`` with the deterministic
    actor ``actions`` (one action per chain state) and a scripted slip per step.
    """
    index = {state.tobytes(): i for i, state in enumerate(env.chain_states())}
    outcomes = [(None, 1.0 - env.noise)] + [
        (a, env.noise / env.action_count) for a in range(env.action_count)]
    total, frontier = 0.0, [((), 1.0)]
    while frontier:
        path, prob = frontier.pop()
        for slip_to, p in outcomes:
            obs = env.reset()
            for step in path + (slip_to,):
                obs, _, done, _, success = env.step(actions[index[obs.tobytes()]],
                                                    _ScriptedSlip(step))
            if success:
                total += prob * p
            elif not done:
                frontier.append((path + (slip_to,), prob * p))
    return total


@pytest.mark.parametrize("t_max", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("steps, noise, seed", [((2, 1), 0.3, 0), ((1, 1, 1), 0.5, 1),
                                                 ((1, 2, 1), 0.05, 2)])
def test_success_probability_equals_enumerated_slip_outcomes(t_max, steps, noise, seed):
    env = StageChainEnv(num_stages=len(steps), steps_per_stage=steps, action_count=3,
                        noise=noise, t_max=t_max)
    actions = np.random.default_rng(seed).integers(3, size=sum(steps)).tolist()
    expected = _enumerated_success(env, actions)
    assert env.success_probability(_one_hot(actions, 3)) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(steps=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       action_count=st.integers(2, 4), noise=st.floats(0.0, 0.9),
       t_max=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_success_probability_matches_rollout_mean(steps, action_count, noise, t_max, seed):
    env = StageChainEnv(num_stages=len(steps), steps_per_stage=steps,
                        action_count=action_count, noise=noise, t_max=t_max)
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(action_count), size=sum(steps))
    exact = env.success_probability(rows)
    episodes = 1000
    cdf = rows.cumsum(axis=1)
    actor = TableActor(env, cdf / cdf[:, -1:])
    mean = np.mean([rollout(env, actor, rng)[1] for _ in range(episodes)])
    # Four standard errors, and one episode's worth where exact lies near 0 or 1.
    assert abs(mean - exact) <= 4 * math.sqrt(exact * (1 - exact) / episodes) + 1 / episodes


def _recorded_feature_rtgs(monkeypatch) -> list:
    """The rtg of every ``state_features`` call from here on."""
    original = LinearSoftmaxPolicy.state_features
    rtgs = []

    def state_features(self, state, rtg):
        rtgs.append(rtg)
        return original(self, state, rtg)

    monkeypatch.setattr(LinearSoftmaxPolicy, "state_features", state_features)
    return rtgs


def test_evaluation_takes_the_greedy_rows_at_the_rtg_target(monkeypatch):
    cfg = replace(TINY, rtg_target=0.5)
    states = cfg.make_env().chain_states()
    rtgs = _recorded_feature_rtgs(monkeypatch)
    result = run_loop(cfg, Variant.FULL, seed=5)
    # Each chain state is projected once; the rollouts and evaluations share the tables.
    assert result.metrics and rtgs == [0.5] * len(states)


def test_loop_at_a_negative_rtg_target_builds_its_tables_only_there(monkeypatch):
    cfg = replace(TINY, rtg_target=-0.5)
    states = cfg.make_env().chain_states()
    rtgs = _recorded_feature_rtgs(monkeypatch)
    result = run_loop(cfg, Variant.UNIFORM, seed=5)
    assert result.metrics and rtgs == [-0.5] * len(states)


def test_evaluate_policy_is_the_chain_probability_of_its_rows():
    env = TINY.make_env()
    policy = LinearSoftmaxPolicy(state_dim=env.state_dim, action_count=env.action_count,
                                 seed=3)
    features = np.array([policy.state_features(state, 0.5) for state in env.chain_states()])
    greedy, cdf = policy.action_table(features)
    assert evaluate_policy(env, greedy, cdf) == (
        env.success_probability(_one_hot(greedy, env.action_count)),
        env.success_probability(np.diff(cdf, axis=1, prepend=0.0)))
    # The same rows, one state at a time: each state's argmax and softmax at rtg 0.5.
    logits = [policy.weights.T @ f for f in features]
    softmax = np.array([np.exp(x - x.max()) / np.exp(x - x.max()).sum() for x in logits])
    assert greedy.tolist() == [int(np.argmax(x)) for x in logits]
    np.testing.assert_allclose(np.diff(cdf, axis=1, prepend=0.0), softmax, rtol=1e-12, atol=1e-15)


def test_observations_are_the_per_step_formula_and_read_only():
    env = StageChainEnv(num_stages=3, steps_per_stage=(5, 3, 7), action_count=4,
                        noise=0.0, t_max=20)
    expected = []
    for stage, steps in enumerate(env.steps_per_stage):
        for progress in range(steps):
            obs = np.zeros(env.state_dim)
            obs[stage] = 1.0
            obs[env.num_stages + stage] = progress / steps
            expected.append(obs)
    expected.append(np.zeros(env.state_dim))  # terminal, after success

    expert, rng = ScriptedDemonstrator(env, epsilon=0.0), np.random.default_rng(0)
    seen, done = [env.reset()], False
    while not done:
        obs, _, done, _, _ = env.step(expert.act(rng), rng)
        seen.append(obs)
    assert [obs.tobytes() for obs in seen] == [obs.tobytes() for obs in expected]
    for obs in seen:
        with pytest.raises(ValueError, match="read-only"):
            obs[0] = 2.0


def test_env_parameter_validation():
    with pytest.raises(ValueError):
        StageChainEnv(num_stages=2, steps_per_stage=(3,), action_count=3)
    with pytest.raises(ValueError):
        StageChainEnv(noise=1.0)
    with pytest.raises(ValueError):
        StageChainEnv(t_max=0)


@pytest.mark.parametrize("action", [-1, 6, 7])
def test_step_rejects_an_action_outside_the_action_range(action):
    env, rng = StageChainEnv(action_count=6, noise=0.5), np.random.default_rng(0)
    env.reset()
    with pytest.raises(ValueError, match=r"outside \[0, 6\)"):
        env.step(action, rng)
    # Rejected before the slip draw: the episode and the generator have not moved.
    assert env.position == 0 and env._t == 0
    assert rng.random() == np.random.default_rng(0).random()


# --------------------------------------------------------------------- metrics

def test_diversity_metric_orthogonal_selection():
    assert diversity_metric(np.eye(4)) == pytest.approx(1.0, abs=1e-5)


def test_diversity_metric_duplicates_collapse():
    dup = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert diversity_metric(dup) <= 1e-2


def test_diversity_metric_two_by_two_closed_form():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert diversity_metric(s) == pytest.approx(math.sqrt(0.75), abs=1e-4)


def test_redundancy_metric_extremes():
    same = np.zeros((5, 3))
    assert redundancy_metric(same, tau=0.1) == 1.0
    spread = np.diag([10.0, 20.0, 30.0])
    assert redundancy_metric(spread, tau=0.1) == 0.0
    assert redundancy_metric(np.zeros((1, 3)), tau=0.1) == 0.0


def test_redundancy_metric_half_case():
    z = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
    assert redundancy_metric(z, tau=0.01) == pytest.approx(0.5)


# ------------------------------------------------------------------------ loop

def test_loop_is_bit_deterministic():
    a = run_loop(TINY, Variant.FULL, seed=3)
    b = run_loop(TINY, Variant.FULL, seed=3)
    assert [m.__dict__ for m in a.metrics] == [m.__dict__ for m in b.metrics]
    assert a.selection_events == b.selection_events
    episodes = [m.episodes_used for m in a.metrics]
    assert episodes == sorted(episodes)
    assert a.metrics  # the tiny config produces at least one evaluation point


def test_uniform_variant_has_no_selection_events():
    result = run_loop(TINY, Variant.UNIFORM, seed=1)
    assert result.selection_events == []
    assert result.metrics


def test_refresh_cadence_follows_period():
    cfg = replace(TINY, episodes=6, refresh_period=3)
    result = run_loop(cfg, Variant.FULL, seed=2)
    steps = [e["step"] for e in result.selection_events]
    assert steps, "selection must happen at least once"
    assert all(s % cfg.refresh_period == 0 for s in steps)
    assert sorted(set(steps)) == steps


# ------------------------------------------------------------------- selection

SELECT = replace(TINY, pool_size=20, subset_size=5)


def _select(variant, score_rng=None, config=SELECT):
    """select_windows on a pool from 12 demonstration episodes; returns (selection, policy)."""
    env = config.make_env()
    buffer = ReplayBuffer(capacity=10_000, gamma=config.gamma)
    rng = np.random.default_rng(0)
    for _ in range(12):
        steps, _ = rollout(env, ScriptedDemonstrator(env, 0.3), rng)
        buffer.append_episode(Episode(id=buffer.new_episode_id(), transitions=steps))
    policy = LinearSoftmaxPolicy(state_dim=env.state_dim, action_count=env.action_count, seed=1)
    score_rng = score_rng or np.random.default_rng(3)
    pool_rng = np.random.default_rng(2)
    pool = buffer.sample_candidate_pool(config.pool_size, config.horizon, pool_rng)
    selection = select_windows(pool, policy, config, variant, pool_rng, score_rng)
    return selection, policy


def _quality(selection, policy):
    return composite_quality(
        selection.pool, SELECT.quality_weights(), policy, passes=SELECT.passes,
        gamma=SELECT.gamma, seed=int(np.random.default_rng(3).integers(2 ** 31)),
        smoothing_alpha=SELECT.smoothing_alpha).composite


def test_full_selection_is_greedy_map_on_its_kernel():
    selection, policy = _select(Variant.FULL)
    z = selection.embeddings
    np.testing.assert_array_equal(selection.kernel.similarity,
                                  rbf_similarity(z, median_bandwidth(z)))
    quality = _quality(selection, policy)
    root = np.sqrt(quality)
    np.testing.assert_allclose(selection.kernel.values,
                               root[:, None] * selection.kernel.similarity * root[None, :]
                               + SELECT.lam * np.eye(SELECT.pool_size))
    greedy = greedy_map(selection.kernel.values, SELECT.subset_size)
    assert selection.indices == greedy.indices
    assert selection.gains == greedy.gains
    assert selection.logdet == greedy.logdet


def test_quality_only_takes_stable_top_k_by_quality():
    selection, policy = _select(Variant.QUALITY_ONLY)
    quality = _quality(selection, policy)
    order = sorted(range(SELECT.pool_size), key=lambda i: -quality[i])  # stable
    assert selection.indices == order[:SELECT.subset_size]
    assert selection.gains == []
    chosen = selection.indices
    assert selection.logdet == log_det(selection.kernel.values[np.ix_(chosen, chosen)])


def test_diversity_only_uses_constant_quality_kernel():
    score_rng = np.random.default_rng(3)
    untouched = score_rng.bit_generator.state
    selection, _ = _select(Variant.DIVERSITY_ONLY, score_rng)
    assert score_rng.bit_generator.state == untouched  # no quality scored
    np.testing.assert_allclose(selection.kernel.values, selection.kernel.similarity
                               + SELECT.lam * np.eye(SELECT.pool_size))
    assert selection.indices == greedy_map(selection.kernel.values, SELECT.subset_size).indices


def test_uniform_selection_draws_k_distinct_pool_positions():
    selection, _ = _select(Variant.UNIFORM)
    full, _ = _select(Variant.FULL)
    # the pool draw comes first
    np.testing.assert_array_equal(selection.pool.episode_ids, full.pool.episode_ids)
    np.testing.assert_array_equal(selection.pool.starts, full.pool.starts)
    assert len(set(selection.indices)) == len(selection.indices) == SELECT.subset_size
    assert all(0 <= i < SELECT.pool_size for i in selection.indices)
    chosen = selection.indices
    assert selection.logdet == log_det(selection.kernel.values[np.ix_(chosen, chosen)])


def test_selection_carries_the_pool_median_under_a_fixed_sigma():
    cfg = replace(SELECT, sigma=0.25)
    selection, _ = _select(Variant.FULL, config=cfg)
    z = selection.embeddings
    assert selection.median_distance == median_bandwidth(z) != cfg.sigma
    np.testing.assert_array_equal(selection.kernel.similarity, rbf_similarity(z, cfg.sigma))


def test_full_selection_peak_allocation_at_pool_1500():
    """The selection keeps one N x N array: the distances, then the similarity.

    ``pairwise_distances`` builds the Gram product and the distances in that
    one array, one row block at a time; ``median_bandwidth`` reads them by
    row blocks, ``rbf_similarity`` turns them into the similarity in place,
    and greedy MAP reads the kernel one column at a time beside its (k, N)
    residual columns and a scratch of at most 65 rows of N, so the pool draw
    and the selection peak at 1.28 arrays of N x N floats (21.9 MiB). With a
    second (k, N) work buffer in greedy MAP it read 1.38; with a second
    distance array, the median's copy of the upper triangle and the built
    kernel it read 2.38; with the extra squared-distance array and kernel
    temporary, 3.20.
    """
    n = 1500
    cfg = replace(LoopConfig(), pool_size=n, subset_size=225)
    env = cfg.make_env()
    buffer = ReplayBuffer(capacity=100_000, gamma=cfg.gamma)
    rng = np.random.default_rng(0)
    while buffer.window_count(cfg.horizon) < 2 * n:
        steps, _ = rollout(env, ScriptedDemonstrator(env, 0.3), rng)
        buffer.append_episode(Episode(id=buffer.new_episode_id(), transitions=steps))
    policy = LinearSoftmaxPolicy(state_dim=env.state_dim, action_count=env.action_count, seed=0)
    pool_rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        pool = buffer.sample_candidate_pool(cfg.pool_size, cfg.horizon, pool_rng)
        select_windows(pool, policy, cfg, Variant.FULL, pool_rng, np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.33 * n * n * 8


def test_selection_events_reference_valid_windows():
    result = run_loop(TINY, Variant.FULL, seed=5)
    for event in result.selection_events:
        assert len(event["Y"]) <= TINY.subset_size
        assert all(isinstance(i, int) and i >= 0 for i in event["Y"])
        assert np.isfinite(event["logdet"])
    # Pinned window ids: a refactor that moves them changes every loop output.
    assert [event["Y"] for event in result.selection_events] == [[16, 52], [45, 46]]


# A tiny run that learns enough that its greedy policy succeeds only in part.
LEARNING = replace(TINY, learning_rate=0.1, pretrain_steps=60, episodes=6)
PARTIAL = 0.22876749816486674  # the greedy chance of success with stalls in the chain
SAMPLED_SUCCESS = {
    Variant.FULL: [0.9733091774425092, 0.8801064822916412, 0.7637435248823687],
    Variant.QUALITY_ONLY: [0.9729613975227364, 0.8894703744688635, 0.7626605078951955],
    Variant.DIVERSITY_ONLY: [0.9761835291420335, 0.8725347858144046, 0.7475284087008432],
    Variant.UNIFORM: [0.9975870473249436, 0.9855013774292171, 0.8091096871634864],
}


@pytest.mark.parametrize("variant, wins", [
    (Variant.FULL, [PARTIAL, PARTIAL, PARTIAL]),
    (Variant.QUALITY_ONLY, [PARTIAL, PARTIAL, PARTIAL]),
    (Variant.DIVERSITY_ONLY, [0.9999999625815659, PARTIAL, PARTIAL]),
    (Variant.UNIFORM, [0.9999999625815659, PARTIAL, PARTIAL]),
])
def test_success_rates_are_pinned(variant, wins):
    # Pinned exact chances of a win at each evaluation: drift in the collection
    # stream or in the evaluation's rows moves them even where the selected ids
    # stay put. The greedy ones are bit-exact, since its rows are one-hot.
    result = run_loop(LEARNING, variant, seed=5)
    assert [m.success_rate for m in result.metrics] == wins
    assert [m.sampled_success for m in result.metrics] == pytest.approx(
        SAMPLED_SUCCESS[variant], rel=1e-12)


def _per_state_table(policy, features):
    """action_table one state at a time: its own GEMV and softmax, and their CDF."""
    greedy, cdf = [], []
    for f in features:
        logits = policy.weights.T @ f
        m = np.max(logits)
        probs = np.exp(logits - float(m + np.log(np.sum(np.exp(logits - m)))))
        greedy.append(int(np.argmax(logits)))
        cdf.append(np.cumsum(probs / probs.sum()))
        cdf[-1] /= cdf[-1][-1]
    return np.array(greedy), np.array(cdf)


class _ChoiceActor:
    """Finds the env's state among the chain's by its bytes and samples by ``rng.choice``."""

    def __init__(self, env, cdf):
        self.env = env
        self.index = {state.tobytes(): i for i, state in enumerate(env.chain_states())}
        self.probs = np.diff(cdf, axis=1, prepend=0.0)

    def act(self, rng) -> int:
        probs = self.probs[self.index[self.env.observation().tobytes()]]
        return int(rng.choice(len(probs), p=probs))


@pytest.mark.parametrize("variant", [Variant.FULL, Variant.UNIFORM])
def test_loop_is_unchanged_by_the_act_memo(variant, monkeypatch):
    """The loop's tables and table actor act as a per-state softmax sampled by rng.choice."""
    import qdreplay.bench as bench

    tabled = run_loop(LEARNING, variant, seed=5)
    monkeypatch.setattr(LinearSoftmaxPolicy, "action_table", _per_state_table)
    monkeypatch.setattr(bench, "TableActor", _ChoiceActor)
    reference = run_loop(LEARNING, variant, seed=5)
    assert tabled.metrics == reference.metrics
    assert tabled.selection_events == reference.selection_events
    assert tabled.selected_stage_counts == reference.selected_stage_counts


def test_selection_ids_lie_below_window_count_at_each_event(monkeypatch):
    import qdreplay.bench as bench

    buffers = []

    class RecordingBuffer(bench.ReplayBuffer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            buffers.append(self)

    monkeypatch.setattr(bench, "ReplayBuffer", RecordingBuffer)
    cfg = replace(TINY, episodes=8, capacity=80)  # small enough to evict episodes
    checked = []

    def audit(event):
        count = buffers[0].window_count(cfg.horizon)
        assert event["Y"] and max(event["Y"]) < count
        assert len(set(event["Y"])) == len(event["Y"])
        checked.append(count)

    result = run_loop(cfg, Variant.FULL, seed=5, audit_callback=audit)
    assert len(checked) == len(result.selection_events) > 0
    assert buffers[0].episodes[0].id > 0


def test_selection_stream_follows_its_windows_through_eviction(monkeypatch):
    """Y's window ids are mapped again after every append, not only at a refresh.

    FIFO eviction shifts every later window id, so each ``mixed_sample`` call
    must get the ids of the last refresh's windows that are still stored.
    """
    import qdreplay.bench as bench

    buffers = []

    class RecordingBuffer(bench.ReplayBuffer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            buffers.append(self)

    monkeypatch.setattr(bench, "ReplayBuffer", RecordingBuffer)
    cfg = replace(TINY, episodes=8, capacity=80)  # evicts between refreshes
    original = bench.mixed_sample
    refreshed, shifted = [], []

    def windows(ids):
        batch = buffers[0].gather(np.asarray(ids, dtype=np.int64), cfg.horizon)
        return list(zip(batch.episode_ids.tolist(), batch.starts.tolist()))

    def mixed_sample(selection, *args):
        stored = {episode.id for episode in buffers[0].episodes}
        ids, chosen = refreshed[-1]
        assert windows(selection) == [w for w in chosen if w[0] in stored]
        shifted.append(list(selection) != ids)
        return original(selection, *args)

    monkeypatch.setattr(bench, "mixed_sample", mixed_sample)
    run_loop(cfg, Variant.FULL, seed=5,
             audit_callback=lambda event: refreshed.append((event["Y"], windows(event["Y"]))))
    assert len(shifted) == cfg.episodes * cfg.updates_per_episode and any(shifted)


@pytest.mark.parametrize("variant", list(Variant))
def test_loop_without_valid_windows_raises_for_every_variant(variant):
    # One one-step stage without slip: the episodes end long before horizon = t_max steps.
    cfg = replace(TINY, num_stages=1, steps_per_stage=(1,), slip=0.0, horizon=TINY.t_max)
    points = []
    with pytest.raises(NoValidWindowsError, match="no valid windows"):
        run_loop(cfg, variant, seed=0, metrics_callback=points.append)
    assert not points


def test_loop_and_ablation_reject_a_capacity_below_t_max_before_any_rollout(monkeypatch):
    """A horizon beyond t_max, which no episode can hold a window of, is rejected the same way."""
    import qdreplay.bench as bench

    calls = []

    def counted_rollout(*args, **kwargs):
        calls.append(1)
        return rollout(*args, **kwargs)

    monkeypatch.setattr(bench, "rollout", counted_rollout)
    for cfg, message in [
        (replace(TINY, capacity=TINY.t_max - 1),
         r"capacity \(19\) must be >= t_max \(20\): the buffer must hold a whole episode"),
        (replace(TINY, horizon=TINY.t_max + 1),
         r"horizon \(21\) must be <= t_max \(20\): no episode is long enough for one window"),
    ]:
        with pytest.raises(ValueError, match=message):
            run_loop(cfg, Variant.FULL, seed=0)
        with pytest.raises(ValueError, match=message):
            run_ablation(cfg, seeds=[1, 2])
    assert not calls
    run_loop(replace(TINY, capacity=TINY.t_max), Variant.FULL, seed=0)  # one episode fits
    assert calls


def test_loop_runs_without_warmup_episodes():
    cfg = replace(TINY, warmup_episodes=0)
    for variant in (Variant.FULL, Variant.UNIFORM):
        result = run_loop(cfg, variant, seed=6)
        assert [m.episodes_used for m in result.metrics] == [2, 4]


def test_metrics_rates_are_bounded():
    for variant in (Variant.FULL, Variant.UNIFORM):
        result = run_loop(TINY, variant, seed=4)
        for point in result.metrics:
            assert 0.0 <= point.success_rate <= 1.0
            assert 0.0 <= point.diversity <= 1.0 + 1e-6
            assert 0.0 <= point.redundancy <= 1.0


def test_default_config_honors_stable_ranges():
    cfg = LoopConfig()
    assert 0.08 <= cfg.subset_size / cfg.pool_size <= 0.20
    assert 0.6 <= cfg.eta <= 0.8


def test_config_validation_catches_bad_values():
    with pytest.raises(ValueError):
        replace(TINY, subset_size=100).validate()
    with pytest.raises(ValueError):
        replace(TINY, eta=1.5).validate()
    with pytest.raises(ValueError):
        replace(TINY, alpha=0.9).validate()
    for bad in ({"lam": -0.1}, {"sigma": 0.0}, {"gamma": 0.0}, {"gamma": 2.0},
                {"slip": 1.0}, {"steps_per_stage": (4, 4)}, {"t_max": 0}):
        with pytest.raises(ValueError):
            replace(TINY, **bad).validate()
    replace(TINY, lam=0.0, sigma=0.5, gamma=0.5).validate()
    # The closed ends of the remaining ranges are allowed.
    replace(TINY, learning_rate=0.0, dropout_rate=0.0, demo_epsilon=1.0, feature_dim=1,
            capacity=1, smoothing_alpha=0.0, rtg_target=-2.0, warmup_episodes=0,
            pretrain_steps=0).validate()
    replace(TINY, demo_epsilon=0.0).validate()


# -------------------------------------------------------------------- ablation

def test_ablation_shape_is_one_value_per_seed_in_each_column():
    columns = run_ablation(TINY, seeds=[1, 2])
    assert set(columns) == set(Variant)
    for column in columns.values():
        assert set(column) == set(ABLATION_COLUMNS)
        assert all(len(values) == 2 for values in column.values())


def test_mean_and_ci_is_mean_and_1_96_standard_errors():
    assert mean_and_ci([1.0, 3.0]) == (2.0, pytest.approx(1.96))  # sample std sqrt(2), stderr 1
    assert mean_and_ci([0.25, 0.25, 0.25]) == (0.25, 0.0)
    assert mean_and_ci([0.5]) == (0.5, 0.0)


def test_ablation_requires_two_seeds():
    with pytest.raises(ValueError, match="2 seeds"):
        run_ablation(TINY, seeds=[1])
    # run_loop is deterministic per seed, so a repeated seed repeats a run. It is
    # rejected before the first run, which this config's horizon would fail.
    with pytest.raises(ValueError, match=r"distinct seeds, got seeds \[1, 2, 1\]"):
        run_ablation(replace(TINY, horizon=TINY.t_max + 1), seeds=[1, 2, 1])
