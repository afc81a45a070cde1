from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdreplay.windows import (
    Episode,
    EpisodeArrays,
    JsonlParseError,
    NoValidWindowsError,
    ReplayBuffer,
    load_jsonl,
    save_jsonl,
)

COLUMNS = ("states", "actions", "rewards", "stages", "done")


def episode_of(eid: int, states, actions, rewards, stages=None, done=None) -> Episode:
    """An episode from per-step values; stages default to 0 and done to the last step only."""
    n = len(rewards)
    return Episode(id=eid, transitions=EpisodeArrays(
        states=np.asarray(states, dtype=float),
        actions=actions,
        rewards=np.asarray(rewards, dtype=float),
        stages=np.zeros(n, dtype=np.int64) if stages is None else np.asarray(stages),
        done=np.arange(n) == n - 1 if done is None else np.asarray(done),
    ))


def make_episode(eid: int, length: int, dim: int = 3, rng=None, stage=None) -> Episode:
    """Random states, actions and rewards; random stages in 0..2 unless ``stage`` is given."""
    rng = rng or np.random.default_rng(eid)
    stages = rng.integers(3, size=length) if stage is None else np.full(length, stage)
    return episode_of(eid, rng.standard_normal((length, dim)), rng.integers(4, size=length),
                      rng.random(length), stages)


def test_append_to_empty_buffer():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 10))
    assert len(buf) == 10


def test_whole_episode_fifo_eviction():
    buf = ReplayBuffer(capacity=15, gamma=0.9)
    buf.append_episode(make_episode(0, 10))
    buf.append_episode(make_episode(1, 10))
    assert len(buf) == 10
    assert [ep.id for ep in buf.episodes] == [1]


def test_state_dim_mismatch_rejected():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 5, dim=4))
    with pytest.raises(ValueError, match="dim mismatch"):
        buf.append_episode(make_episode(1, 5, dim=3))


def test_episode_larger_than_capacity_rejected():
    buf = ReplayBuffer(capacity=5, gamma=0.9)
    with pytest.raises(ValueError, match="exceeds capacity"):
        buf.append_episode(make_episode(0, 6))


def test_done_before_final_transition_rejected():
    episode = episode_of(0, np.zeros((2, 2)), [0, 0], [0.0, 0.0], done=[True, True])
    with pytest.raises(ValueError, match="done"):
        ReplayBuffer(capacity=10, gamma=0.9).append_episode(episode)


def test_episode_ids_strictly_increasing():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(5, 4))
    with pytest.raises(ValueError, match="strictly increasing"):
        buf.append_episode(make_episode(5, 4))


def test_non_finite_reward_rejected():
    buf = ReplayBuffer(capacity=10, gamma=0.9)
    with pytest.raises(ValueError, match="step 1: reward must be finite"):
        buf.append_episode(episode_of(0, np.zeros((2, 2)), [0, 0], [0.0, float("nan")]))
    assert len(buf) == 0


def test_negative_stage_rejected():
    buf = ReplayBuffer(capacity=10, gamma=0.9)
    with pytest.raises(ValueError, match="step 0: stage label must be non-negative"):
        buf.append_episode(episode_of(0, np.zeros((2, 2)), [0, 0], [0.0, 0.0], stages=[-1, 0]))
    assert len(buf) == 0


@pytest.mark.parametrize("column", COLUMNS)
def test_column_of_another_length_rejected(column):
    episode = make_episode(0, 4)
    short = dict(vars(episode.transitions), **{column: getattr(episode.transitions, column)[:3]})
    buf = ReplayBuffer(capacity=10, gamma=0.9)
    with pytest.raises(ValueError, match="one row per transition"):
        buf.append_episode(Episode(id=0, transitions=EpisodeArrays(**short)))
    assert len(buf) == 0


def test_episode_with_non_finite_state_rejected():
    buf = ReplayBuffer(capacity=10, gamma=0.9)
    with pytest.raises(ValueError, match="step 1: state must be finite"):
        buf.append_episode(episode_of(0, [[0.0, 0.0], [0.0, np.inf]], [0, 0], [0.0, 0.0]))
    assert len(buf) == 0


@pytest.mark.parametrize("actions, message", [
    (np.array([0.5, 1.7]), "discrete actions must be integers, got dtype float64"),
    (np.array([[0.5], [np.inf]]), "step 1: action must be finite"),
    (np.array([[0.5, np.nan], [0.5, 0.5]]), "step 0: action must be finite"),
    (np.array([0, -1]), "step 1: discrete action must be non-negative"),
    (np.zeros((2, 2, 2)), r"one vector per step, got shape \(2, 2, 2\)"),
])
def test_episode_with_bad_actions_rejected(actions, message):
    buf = ReplayBuffer(capacity=10, gamma=0.9)
    with pytest.raises(ValueError, match=message):
        buf.append_episode(episode_of(0, np.zeros((2, 2)), actions, [0.0, 0.0]))
    assert len(buf) == 0


def test_episode_mixing_action_kinds_rejected():
    episode = episode_of(0, np.zeros((2, 2)), [0, np.array([0.5])], [0.0, 0.0])
    with pytest.raises(ValueError, match="actions must have one kind"):
        ReplayBuffer(capacity=10, gamma=0.9).append_episode(episode)


@pytest.mark.parametrize("stored, appended, message", [
    (np.zeros(2, dtype=np.int64), np.zeros((2, 1)), r"continuous of shape \(1,\), expected discrete"),
    (np.zeros((2, 1)), np.zeros(2, dtype=np.int64), r"discrete, expected continuous of shape \(1,\)"),
    (np.zeros((2, 1)), np.zeros((2, 2)), r"shape \(2,\), expected continuous of shape \(1,\)"),
])
def test_action_array_of_another_kind_rejected(stored, appended, message):
    """A typed action array has the kind a list of its rows has."""
    for actions in (appended, list(appended)):
        buf = ReplayBuffer(capacity=10, gamma=0.9)
        buf.append_episode(episode_of(0, np.zeros((2, 2)), stored, [0.0, 0.0]))
        with pytest.raises(ValueError, match=message):
            buf.append_episode(episode_of(1, np.zeros((2, 2)), actions, [0.0, 0.0]))
        assert len(buf) == 2


@pytest.mark.parametrize("actions", [np.arange(3), np.arange(6.0).reshape(3, 2)])
def test_action_array_is_stored_as_its_rows(actions):
    by_array, by_rows = ReplayBuffer(capacity=10, gamma=0.9), ReplayBuffer(capacity=10, gamma=0.9)
    by_array.append_episode(episode_of(0, np.zeros((3, 2)), actions, [0.0, 0.0, 0.0]))
    by_rows.append_episode(episode_of(0, np.zeros((3, 2)), list(actions), [0.0, 0.0, 0.0]))
    stored, expected = (buf.episodes[0].transitions.actions for buf in (by_array, by_rows))
    assert stored.dtype == expected.dtype
    np.testing.assert_array_equal(stored, expected)


def test_empty_episode_rejected():
    with pytest.raises(ValueError, match="at least one transition"):
        ReplayBuffer(capacity=10, gamma=0.9).append_episode(
            episode_of(0, np.zeros((0, 2)), np.zeros(0, dtype=np.int64), []))


def test_buffers_sharing_an_episode_do_not_share_rows():
    """Each buffer copies what it stores: churn in one, or a caller's write, leaves the rest."""
    episode = make_episode(0, 4)
    original = {name: getattr(episode.transitions, name).copy() for name in COLUMNS}
    kept = ReplayBuffer(capacity=100, gamma=0.9)
    churned = ReplayBuffer(capacity=12, gamma=0.9)
    kept.append_episode(episode)
    churned.append_episode(episode)
    before = kept.gather(np.arange(kept.window_count(2)), 2)
    for eid in range(1, 12):  # evicts, grows and then compacts the columns in place
        churned.append_episode(make_episode(eid, 4))
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(episode.transitions, name), original[name])
        getattr(episode.transitions, name)[...] = 1  # the caller reuses its arrays
    after = kept.gather(np.arange(kept.window_count(2)), 2)
    for name in vars(before):
        np.testing.assert_array_equal(getattr(after, name), getattr(before, name))
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(kept.episodes[0].transitions, name),
                                      original[name])


def test_first_append_into_an_empty_buffer_copies_every_column():
    """Arrays already of the stored dtypes pass ingest uncopied; the store copies them."""
    rng = np.random.default_rng(3)
    episode = episode_of(0, rng.standard_normal((5, 3)), rng.integers(4, size=5).astype(np.int64),
                         rng.random(5), rng.integers(3, size=5).astype(np.int64))
    original = {name: getattr(episode.transitions, name).copy() for name in COLUMNS}
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(episode)
    for name in COLUMNS:
        getattr(episode.transitions, name)[...] = 1  # the caller reuses its arrays
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(buf.episodes[0].transitions, name),
                                      original[name])


def test_window_offsets_are_cached_read_only_until_an_append():
    buf = ReplayBuffer(capacity=30, gamma=0.9)
    buf.append_episode(make_episode(0, 10))
    offsets = buf._window_offsets(3)
    assert buf._window_offsets(3) is offsets and offsets.tolist() == [0, 8]
    with pytest.raises(ValueError, match="read-only"):
        offsets[0] = 1
    for horizon in (0, -1):  # the cache is warm, and a bad horizon still raises
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            buf.window_count(horizon)
    buf.append_episode(make_episode(1, 12))
    assert buf.window_count(3) == 8 + 10
    buf.append_episode(make_episode(2, 15))  # evicts episode 0
    assert buf.window_count(3) == 10 + 13
    assert buf.window_ids([1, 2], [0, 0], 3).tolist() == [0, 10]
    assert offsets.tolist() == [0, 8]  # an array handed out before keeps its values


def test_empty_buffer_has_no_windows(tmp_path):
    buf = ReplayBuffer(capacity=10, gamma=0.9)
    assert len(buf) == 0 and len(buf.episodes) == 0 and buf.state_dim is None
    assert buf.window_count(3) == 0
    assert buf.valid_windows(3) == []
    assert buf.window_ids([0], [0], 3).size == 0
    with pytest.raises(NoValidWindowsError):
        buf.sample_candidate_pool(4, 3, seed=0)
    with pytest.raises(KeyError):
        buf.materialize(0, 0, 3)
    path = tmp_path / "empty.jsonl"
    save_jsonl(buf, path)
    assert path.read_text() == ""
    assert load_jsonl(path).window_count(3) == 0


def test_rtg_recurrence_holds_within_episode():
    buf = ReplayBuffer(capacity=1000, gamma=0.93)
    rng = np.random.default_rng(11)
    for eid in range(4):
        buf.append_episode(make_episode(eid, int(rng.integers(6, 15)), rng=rng))
    for eid, start in buf.valid_windows(5):
        w = buf.materialize(eid, start, 5)
        assert (w.episode_id, w.start, w.horizon) == (eid, start, 5)
        for j in range(w.horizon - 1):
            expected = w.rewards[j] + buf.gamma * w.rtg[j + 1]
            assert w.rtg[j] == pytest.approx(expected, rel=1e-9)


def test_single_valid_start():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 5))
    pool = buf.sample_candidate_pool(3, 5, seed=0)
    assert len(pool) == 1
    assert (pool[0].episode_id, pool[0].start) == (0, 0)


def test_valid_start_count_is_length_minus_horizon_plus_one():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 10))
    pool = buf.sample_candidate_pool(100, 5, seed=0)
    assert len(pool) == 6
    assert sorted(pool.starts.tolist()) == [0, 1, 2, 3, 4, 5]


def test_pool_draw_is_without_replacement():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 10))
    buf.append_episode(make_episode(1, 10))
    pool = buf.sample_candidate_pool(4, 5, seed=3)
    pairs = list(zip(pool.episode_ids.tolist(), pool.starts.tolist()))
    assert len(pairs) == 4
    assert len(set(pairs)) == 4


def test_pool_sampling_deterministic_for_seed():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 12))
    buf.append_episode(make_episode(1, 12))
    first = buf.sample_candidate_pool(5, 4, seed=42)
    second = buf.sample_candidate_pool(5, 4, seed=42)
    for name in vars(first):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


def test_no_valid_windows_is_an_error():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 3))
    with pytest.raises(ValueError, match="no valid windows"):
        buf.sample_candidate_pool(2, 5, seed=0)


def _window_returns(rewards, gamma):
    """Returns of every length-3 window of one episode with the given rewards."""
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(episode_of(0, np.zeros((len(rewards), 2)), [0] * len(rewards), rewards))
    return buf.gather(np.arange(buf.window_count(3)), 3).returns(gamma)


def test_discounted_return_undiscounted_sum():
    np.testing.assert_allclose(_window_returns([1, 1, 1, 0, 0], 1.0), [3.0, 2.0, 1.0])


def test_discounted_return_halving():
    np.testing.assert_allclose(_window_returns([1, 1, 1, 0], 0.5), [1.75, 1.5])


def test_discounted_return_zero_rewards():
    for gamma in (0.1, 0.5, 1.0):
        assert _window_returns([0, 0, 0], gamma).tolist() == [0.0]


def test_window_return_matches_rtg_only_at_episode_tail():
    buf = ReplayBuffer(capacity=100, gamma=0.8)
    buf.append_episode(make_episode(0, 6, rng=np.random.default_rng(5)))
    head, tail = buf.gather([0, 1], 5)  # tail ends exactly at the episode boundary
    returns = buf.gather([0, 1], 5).returns(0.8)
    assert returns[1] == pytest.approx(tail.rtg[0], rel=1e-9)
    assert returns[0] != pytest.approx(head.rtg[0], rel=1e-9)


def test_window_stage_label_majority_with_low_tie():
    buf = ReplayBuffer(capacity=10, gamma=0.9)
    buf.append_episode(episode_of(0, np.zeros((7, 2)), [0] * 7, [0.0] * 7,
                                  stages=[2, 2, 1, 1, 0, 2, 2]))
    assert buf.materialize(0, 0, 4).stage_label == 1
    assert buf.gather(np.arange(4), 4).stage_labels.tolist() == [1, 1, 1, 2]


def _columns_equal(a, b):
    for name in vars(a):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
        assert getattr(a, name).dtype == getattr(b, name).dtype, name


@st.composite
def _episode_columns(draw, state_dim, action_dim):
    """One random episode's columns; ``action_dim`` None gives discrete actions."""
    length = draw(st.integers(1, 8))
    values = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    rows = st.lists(st.lists(values, min_size=length, max_size=length),
                    min_size=1, max_size=1)
    vectors = lambda dim: st.lists(st.lists(values, min_size=dim, max_size=dim),  # noqa: E731
                                   min_size=length, max_size=length)
    actions = (draw(st.lists(st.integers(0, 9), min_size=length, max_size=length))
               if action_dim is None else np.array(draw(vectors(action_dim))))
    return EpisodeArrays(
        states=np.array(draw(vectors(state_dim))),
        actions=np.asarray(actions),
        rewards=np.array(draw(rows)[0]),
        stages=np.array(draw(st.lists(st.integers(0, 4), min_size=length, max_size=length))),
        done=np.arange(length) == length - 1,
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), state_dim=st.integers(1, 3), action_dim=st.none() | st.integers(1, 3),
       count=st.integers(1, 6), spare=st.integers(0, 30), gamma=st.floats(0.5, 1.0))
def test_jsonl_round_trip_and_deterministic_bytes(tmp_path_factory, data, state_dim,
                                                  action_dim, count, spare, gamma):
    episodes = [data.draw(_episode_columns(state_dim, action_dim)) for _ in range(count)]
    capacity = max(map(len, episodes)) + spare  # small spares evict the oldest episodes
    buf = ReplayBuffer(capacity=capacity, gamma=gamma)
    for eid, steps in enumerate(episodes):
        buf.append_episode(Episode(id=2 * eid, transitions=steps))
    tmp = tmp_path_factory.mktemp("jsonl")
    save_jsonl(buf, tmp / "a.jsonl")
    save_jsonl(buf, tmp / "b.jsonl")
    assert (tmp / "a.jsonl").read_bytes() == (tmp / "b.jsonl").read_bytes()

    # Lines may come in any order: a permuted dump loads to the same columns.
    lines = (tmp / "a.jsonl").read_text().splitlines(keepends=True)
    (tmp / "p.jsonl").write_text("".join(data.draw(st.permutations(lines), label="order")))
    for name in ("a.jsonl", "p.jsonl"):
        loaded = load_jsonl(tmp / name, gamma=gamma)
        assert len(loaded) == len(buf) and len(loaded.episodes) == len(buf.episodes)
        for orig, back in zip(buf.episodes, loaded.episodes):
            assert orig.id == back.id
            _columns_equal(orig.transitions, back.transitions)
        for horizon in (1, 3):
            assert loaded.window_count(horizon) == buf.window_count(horizon)
            ids = np.arange(buf.window_count(horizon))
            _columns_equal(buf.gather(ids, horizon), loaded.gather(ids, horizon))
        save_jsonl(loaded, tmp / "c.jsonl")
        assert (tmp / "c.jsonl").read_bytes() == (tmp / "a.jsonl").read_bytes()


def test_jsonl_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"episode": 0, "t": 0, "state": [0.0], "action": 1, "reward": 0.0}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        load_jsonl(path)


def _assert_gather_matches_materialize(buf, appended, horizon):
    """``gather`` and ``materialize`` against slices of the appended episodes.

    ``appended`` maps each episode id to the ``EpisodeArrays`` given to the
    buffer; the windows are expected episode-major over the stored ids.
    """
    pairs = [(ep.id, start) for ep in buf.episodes
             for start in range(len(ep) - horizon + 1)]
    batch = buf.gather(np.arange(len(pairs)), horizon)
    assert len(batch) == len(pairs)
    assert batch.episode_ids.tolist() == [eid for eid, _ in pairs]
    assert batch.starts.tolist() == [start for _, start in pairs]
    for b, (eid, start) in enumerate(pairs):
        steps = appended[eid]
        rtg, acc = np.zeros(len(steps)), 0.0
        for t in range(len(steps) - 1, -1, -1):
            acc = steps.rewards[t] + buf.gamma * acc
            rtg[t] = acc
        window = slice(start, start + horizon)
        majority = int(np.bincount(steps.stages[window]).argmax())
        w = buf.materialize(eid, start, horizon)
        assert (w.episode_id, w.start, w.stage_label) == (eid, start, majority)
        assert batch.stage_labels[b] == majority
        for got in (batch[b], w):
            np.testing.assert_array_equal(got.states, steps.states[window])
            np.testing.assert_array_equal(got.actions, steps.actions[window])
            np.testing.assert_array_equal(got.rewards, steps.rewards[window])
            np.testing.assert_array_equal(got.rtg, rtg[window])
        np.testing.assert_array_equal(batch.stages[b], steps.stages[window])


def test_gather_matches_materialize_through_fifo_eviction():
    buf = ReplayBuffer(capacity=60, gamma=0.9)
    rng = np.random.default_rng(3)
    appended = {}
    for eid in range(40):  # enough appends to grow and compact the columns
        episode = make_episode(eid, int(rng.integers(1, 15)), rng=rng)
        appended[eid] = episode.transitions
        buf.append_episode(episode)
        for horizon in (1, 4):
            _assert_gather_matches_materialize(buf, appended, horizon)
    assert buf.episodes[0].id > 0


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 40),
    horizon=st.integers(1, 6),
    lengths=st.lists(st.integers(1, 12), min_size=1, max_size=25),
)
def test_window_ids_follow_episode_order_under_fifo(capacity, horizon, lengths):
    buf = ReplayBuffer(capacity=capacity, gamma=0.9)
    stored: list[tuple[int, int]] = []  # reference FIFO of (episode id, length)
    appended = {}
    for eid, length in enumerate(lengths):
        length = min(length, capacity)
        episode = make_episode(eid, length, dim=2)
        appended[eid] = episode.transitions
        buf.append_episode(episode)
        stored.append((eid, length))
        while sum(n for _, n in stored) > capacity:
            stored.pop(0)
        assert [ep.id for ep in buf.episodes] == [e for e, _ in stored]
        assert len(buf) == sum(n for _, n in stored) <= capacity
        expected = [(e, s) for e, n in stored for s in range(n - horizon + 1)]
        assert buf.valid_windows(horizon) == expected
        assert buf.window_count(horizon) == len(expected)
        ids = buf.window_ids([e for e, _ in expected], [s for _, s in expected], horizon)
        assert ids.tolist() == list(range(len(expected)))
        evicted = list(range(stored[0][0]))
        assert buf.window_ids(evicted, [0] * len(evicted), horizon).size == 0
    _assert_gather_matches_materialize(buf, appended, horizon)


def _record(episode, t, action=1):
    return {"episode": episode, "t": t, "state": [0.0, 1.0], "action": action,
            "reward": 0.0, "stage": 0, "done": False}


@pytest.mark.parametrize("records, line, message", [
    ([_record(0, 0), _record(0, 1), _record(0, 1)], 3, "duplicate t=1"),
    ([_record(0, 0), _record(1, 0), _record(0, 2)], 3, "t=2 where t=1"),
    ([_record(0, 0), _record(0, 1, action=[0.5]), _record(0, 2)], 2, "continuous"),
    ([_record(0, 0), {**_record(0, 1), "state": [0.0]}], 2, "state has 1 entries"),
    ([_record(0, 0), {**_record(0, 1), "reward": float("inf")}], 2, "reward must be finite"),
    ([_record(0, 0), {**_record(0, 1), "stage": -1}], 2, "non-negative"),
    ([{**_record(0, 0), "done": True}, _record(0, 1)], 1, "done=True before the final"),
    ([_record(0, 0), {**_record(0, 1), "state": [float("nan"), 1.0]}], 2, "state must be finite"),
    # Scalars of the wrong JSON type are rejected, not converted.
    ([_record(0, 0), _record(0, 1, action=1.5)], 2, "action must be a JSON integer"),
    ([_record(0, 0), _record(0, 1, action=True)], 2, "action must be a JSON integer"),
    ([_record(0, 0), {**_record(0, 1), "stage": 1.7}], 2, "stage must be a JSON integer"),
    ([_record(0, 0), {**_record(0, 1), "stage": 1.0}], 2, "stage must be a JSON integer"),
    ([_record(0, 0), {**_record(0, 1), "t": 0.5}], 2, "t must be a JSON integer"),
    ([_record(0, 0), {**_record(0, 1), "episode": "0"}], 2, "episode must be a JSON integer"),
    ([_record(0, 0), {**_record(0, 1), "episode": False}], 2, "episode must be a JSON integer"),
    ([_record(0, 0), {**_record(0, 1), "reward": "1"}], 2, "reward must be a JSON number"),
    ([_record(0, 0), {**_record(0, 1), "reward": True}], 2, "reward must be a JSON number"),
    ([_record(0, 0), {**_record(0, 1), "done": "false"}], 2, "done must be a JSON bool"),
    ([_record(0, 0), {**_record(0, 1), "done": 0}], 2, "done must be a JSON bool"),
    # So are the entries of a state or a continuous action.
    ([_record(0, 0), {**_record(0, 1), "state": ["1.5", 1.0]}], 2,
     "state must be a list of JSON numbers"),
    ([_record(0, 0), {**_record(0, 1), "state": [True, 1.0]}], 2,
     "state must be a list of JSON numbers"),
    ([_record(0, 0, action=[0.5]), _record(0, 1, action=["0.5"])], 2,
     "action must be a JSON integer or a list of JSON numbers"),
    ([_record(0, 0, action=[0.5, 0.5]), _record(0, 1, action=[0.5, False])], 2,
     "action must be a JSON integer or a list of JSON numbers"),
    # The first line fixes the action kind, and a continuous action's width.
    ([_record(0, 0, action=[0.5]), _record(0, 1)], 2,
     r"action is discrete, expected continuous of shape \(1,\)"),
    ([_record(0, 0, action=[0.5]), _record(0, 1, action=[0.5, 0.5])], 2,
     r"shape \(2,\), expected continuous of shape \(1,\)"),
    # A continuous action's entries must be finite, as a state's are.
    ([_record(0, 0, action=[0.5]), _record(0, 1, action=[float("inf")])], 2,
     "action must be finite"),
    ([_record(0, 0, action=[0.5]), _record(0, 1, action=[float("nan")])], 2,
     "action must be finite"),
    # A discrete action is an index, so it cannot be negative; the line follows the sort.
    ([_record(0, 0), _record(0, 1, action=-1)], 2, "discrete action must be non-negative"),
    ([_record(0, 1), _record(1, 0), _record(0, 0, action=-3)], 3,
     "episode 0, step 0: discrete action must be non-negative"),
])
def test_load_jsonl_rejects_inconsistent_steps_and_actions(tmp_path, records, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(JsonlParseError, match=f"line {line}: .*{message}"):
        load_jsonl(path)
