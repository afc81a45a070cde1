from __future__ import annotations

import errno
import json
import math
import os
import re
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonl_oracle import load_jsonl as load_jsonl_oracle
from jsonl_oracle import undecodable_line as undecodable_line_oracle

from qdreplay import windows
from qdreplay.windows import (
    _BLOCK,
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
    assert buf.materialize(1, 0, 3).episode_id == 1
    with pytest.raises(KeyError, match="episode 0 not in buffer"):
        buf.materialize(0, 0, 3)


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


@pytest.mark.parametrize("stored_before", [0, 2])
def test_append_episode_shares_no_memory_with_its_caller(stored_before):
    """The caller keeps its arrays: none is stored, so writing into them changes nothing."""
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    for eid in range(stored_before):
        buf.append_episode(make_episode(eid, 4))
    rng = np.random.default_rng(4)
    # Already of the stored dtypes, so ingest converts none of them.
    episode = episode_of(stored_before, rng.standard_normal((5, 3)),
                         rng.integers(4, size=5).astype(np.int64), rng.random(5),
                         rng.integers(3, size=5).astype(np.int64))
    buf.append_episode(episode)
    given = [getattr(episode.transitions, name) for name in COLUMNS]
    stored = {name: buf._rows[name] for name in (*COLUMNS, "rtg")}
    assert not any(np.shares_memory(a, b) for a in given for b in stored.values())
    before = {name: column.copy() for name, column in stored.items()}
    for array in given:
        array[...] = 1
    for name, column in stored.items():
        np.testing.assert_array_equal(column, before[name])


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
    assert load_jsonl(path, gamma=0.9).window_count(3) == 0


@pytest.mark.parametrize("start", [-1, 8, 10])
def test_materialize_with_a_start_outside_the_episode_raises_value_error(start):
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 10))
    assert buf.materialize(0, 7, 3).start == 7  # the last start of a length-3 window
    with pytest.raises(ValueError, match="out of range"):
        buf.materialize(0, start, 3)


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


def _dumps_per_record(buffer: ReplayBuffer, path) -> None:
    """One ``json.dumps`` per transition: the bytes ``save_jsonl`` must write."""
    with open(path, "w") as fh:
        for episode in buffer.episodes:
            steps = episode.transitions
            for t in range(len(steps)):
                record = {"episode": episode.id, "t": t, "state": steps.states[t].tolist(),
                          "action": steps.actions[t].tolist(),
                          "reward": float(steps.rewards[t]), "stage": int(steps.stages[t]),
                          "done": bool(steps.done[t])}
                fh.write(json.dumps(record) + "\n")


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                1e16, -1e16, 0.1, 1 / 3, 123456789.0, 1e-7, 2.5e-308]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), state_dim=st.integers(1, 4), action_dim=st.none() | st.integers(1, 3),
       ids=st.sets(st.integers(0, 2 ** 62), min_size=1, max_size=6), spare=st.integers(0, 20))
def test_save_jsonl_writes_the_bytes_of_json_dumps(tmp_path_factory, data, state_dim, action_dim,
                                                   ids, spare):
    values = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    big = st.integers(0, 2 ** 62)

    def column(strategy, length, *shape):
        size = length * math.prod(shape)
        return np.array(data.draw(st.lists(strategy, min_size=size, max_size=size)),
                        dtype=np.int64 if strategy is big else float).reshape(length, *shape)

    episodes = []
    for eid in sorted(ids):
        length = data.draw(st.integers(1, 6), label="length")
        actions = column(big, length) if action_dim is None else column(values, length, action_dim)
        episodes.append(Episode(id=eid, transitions=EpisodeArrays(
            states=column(values, length, state_dim), actions=actions,
            rewards=column(values, length), stages=column(big, length),
            done=np.arange(length) == length - 1)))
    buf = ReplayBuffer(capacity=max(map(len, episodes)) + spare, gamma=1.0)
    for episode in episodes:  # small spares evict the first episodes
        buf.append_episode(episode)
    tmp = tmp_path_factory.mktemp("dumps")
    save_jsonl(buf, tmp / "ours.jsonl")
    _dumps_per_record(buf, tmp / "dumps.jsonl")
    assert (tmp / "ours.jsonl").read_bytes() == (tmp / "dumps.jsonl").read_bytes()


def test_jsonl_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"episode": 0, "t": 0, "state": [0.0], "action": 1, "reward": 0.0}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        load_jsonl(path, gamma=1.0)


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
    # Every line is a JSON object.
    ([_record(0, 0), [1, 2]], 2, r"expected a JSON object, got \[1, 2\]"),
    ([_record(0, 0), "abc"], 2, 'expected a JSON object, got "abc"'),
])
def test_load_jsonl_rejects_inconsistent_steps_and_actions(tmp_path, records, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(JsonlParseError, match=f"line {line}: .*{message}"):
        load_jsonl(path, gamma=1.0)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_load_jsonl_names_the_line_and_file_of_a_byte_that_is_not_utf8(tmp_path, newline):
    good = json.dumps(_record(0, 0)).encode()
    path = tmp_path / "bad.jsonl"
    path.write_bytes(newline.join([good, b"", good[:5] + b"\xff" + good[5:], good]) + newline)
    with pytest.raises(JsonlParseError, match=r"line 3: byte 0xff at column 6 is not utf-8 "
                                              r"text \(in .*bad\.jsonl\)"):
        load_jsonl(path, gamma=1.0)


_PIECES = (b"a", b"{}", b"\r", b"\n", b"\r\n", b"\xff", b"\xc3\xa9", b"\xc3", b"\xa9",
           b"\xe2\x82\xac", b"\xe2\x82")


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=40), chunk=st.integers(1, 8))
def test_undecodable_line_streamed_agrees_with_the_whole_file_split(tmp_path_factory, pieces,
                                                                   chunk):
    """Chunks of a few bytes split lines, \\r\\n pairs and characters at every place."""
    path = tmp_path_factory.mktemp("bytes") / "dump.jsonl"
    path.write_bytes(b"".join(pieces))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(windows, "_CHUNK", chunk)
        assert windows.undecodable_line(path, "utf-8") == undecodable_line_oracle(path, "utf-8")


def test_load_jsonl_counts_a_crlf_split_between_two_chunks_as_one_line_break(tmp_path):
    path = tmp_path / "bad.jsonl"
    # The \r is the last byte of the first chunk and its \n the first of the next.
    path.write_bytes(b"x" * (windows._CHUNK - 1) + b"\r\nok\nba\xffd\n")
    assert undecodable_line_oracle(path, "utf-8") == (
        3, "byte 0xff at column 3 is not utf-8 text")
    with pytest.raises(JsonlParseError, match=r"^line 3: byte 0xff at column 3 is not utf-8 "
                                              r"text \(in .*bad\.jsonl\)$"):
        load_jsonl(path, gamma=1.0)


_GOOD = json.dumps(_record(0, 0))
_BIG = 2 ** 63  # one past int64
_LONG_REWARD = _GOOD.replace('"reward": 0.0', '"reward": ' + "9" * 5000)  # past int's 4300 digits


@pytest.mark.parametrize("text, line, message", [
    # An integer outside int64 in an integer field, or too large for a float in a float one.
    *[(f"{_GOOD}\n{json.dumps({**_record(0, 1), key: value})}\n", 2,
       "Python int too large to convert to C long")
      for key in ("episode", "t", "stage", "action") for value in (_BIG, -_BIG - 1)],
    (f"{_GOOD}\n{json.dumps({**_record(0, 1), 'state': [10 ** 400, 1.0]})}\n", 2,
     "int too large to convert to float"),
    (f"{_GOOD}\n{json.dumps({**_record(0, 1), 'reward': 10 ** 400})}\n", 2,
     "int too large to convert to float"),
    # Trailing data, a second object, a byte order mark, and blank lines before a bad one.
    (f"{_GOOD}\n{_GOOD} x\n", 2, r"invalid JSON \(Extra data\)"),
    (f"{_GOOD}\n{_GOOD} {_GOOD}\n", 2, r"invalid JSON \(Extra data\)"),
    (f"\ufeff{_GOOD}\n", 1, r"invalid JSON \(Unexpected UTF-8 BOM"),
    (f"{_GOOD}\n\n   \n\t\nnope\n", 5, r"invalid JSON \(Expecting value\)"),
    # Nesting deeper than the recursion limit, and an integer of more than 4300 digits.
    pytest.param(f"{_GOOD}\n{'[' * 100_000}\n", 2,
                 r"invalid JSON \(maximum recursion depth exceeded", id="too-deep"),
    pytest.param(f"{_GOOD}\n{_LONG_REWARD}\n", 2,
                 r"invalid JSON \(Exceeds the limit \(4300 digits\) for integer string",
                 id="too-many-digits"),
])
def test_load_jsonl_names_the_line_of_an_overflow_or_a_malformed_line(tmp_path, text, line,
                                                                      message):
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(JsonlParseError, match=f"^line {line}: {message}"):
        load_jsonl(path, gamma=1.0)


# ------------------------------------------------ the per-line loader as the oracle

_WRONG_TYPES = {
    "state": ("x", None, 3, [True, 0.0], ["1.0"], [[1.0]], {}),
    "action": (1.5, True, None, "1", [True], ["a"], [[0.5]]),
    "reward": ("1", True, None, [1.0]),
    "stage": (1.0, True, "0", None),
    "episode": (0.0, False, "0", None),
    "t": (0.5, True, "1", None),
    "done": (0, "false", None),
}
_KEYS = tuple(_WRONG_TYPES)
_HUGE = 10 ** 400  # an integer too large for a float
_INTEGERS = (2 ** 63, -2 ** 63 - 1, 2 ** 64 + 7, -1, 0, 3)  # three outside int64
_ENTRIES = (_HUGE, -_HUGE, 2 ** 53 + 1, 2 ** 70, 3, float("nan"), float("inf"))
_TEXT_EDITS = ("trailing", "twice", "split", "bom", "crlf", "blank", "spaces", "list", "number",
               "string", "null")


def _mutation(continuous: bool):
    """One change to one line: ("set", key, value), ("del", key), ("entry", key, index,
    value) for a state or continuous action entry, or ("text", edit) on the line's text."""
    integer_keys = ("episode", "t", "stage") + (() if continuous else ("action",))
    return st.one_of(
        st.sampled_from(_KEYS).flatmap(lambda key: st.tuples(
            st.just("set"), st.just(key), st.sampled_from(_WRONG_TYPES[key]))),
        st.tuples(st.just("del"), st.sampled_from(_KEYS)),
        st.tuples(st.just("set"), st.sampled_from(integer_keys), st.sampled_from(_INTEGERS)),
        st.tuples(st.just("set"), st.sampled_from(("reward", "done", "action")),
                  st.sampled_from((_HUGE, 2 ** 70, float("nan"), float("-inf"), True, [0.5]))),
        st.tuples(st.just("entry"),
                  st.sampled_from(("state", "action") if continuous else ("state",)),
                  st.integers(-1, 3), st.sampled_from(_ENTRIES)),
        st.tuples(st.just("text"), st.sampled_from(_TEXT_EDITS)),
    )


def _overflow(continuous: bool):
    """A change that makes a value too large for its column."""
    return st.sampled_from([
        ("set", "episode", 2 ** 63), ("set", "t", -2 ** 63 - 1), ("set", "stage", 2 ** 64 + 7),
        ("set", "reward", _HUGE), ("entry", "state", 0, _HUGE),
        ("entry", "action", 0, -_HUGE) if continuous else ("set", "action", 2 ** 63)])


def _mutate(line: str, changes) -> str:
    """``line`` after ``changes``: the record's own first, then any text edits, in order."""
    rec = json.loads(line)
    for change in changes:
        kind, key, *args = change
        if kind == "set":
            rec[key] = args[0]
        elif kind == "del":
            rec.pop(key, None)
        elif kind == "entry" and type(rec.get(key)) is list:
            index, value = args
            if index < len(rec[key]):
                rec[key][index] = value
            else:
                rec[key].append(value)  # also one entry too many
    line = json.dumps(rec)
    for kind, edit, *_ in changes:
        if kind != "text":
            continue
        line = {
            "trailing": line + " x",
            "twice": line + " " + line,
            "split": line[:len(line) // 2] + "\n" + line[len(line) // 2:],
            "bom": "\ufeff" + line,
            "crlf": line + "\r",
            "blank": "\n" + line,
            "spaces": " \t \n  " + line + " ",
            "list": "[1, 2]",
            "number": "3",
            "string": '"abc"',
            "null": "null",
        }[edit]
    return line


def _dump_lines(path, seed: int, size: int, width: int, action_dim: int | None) -> list[str]:
    """The lines ``save_jsonl`` writes for ``size`` random transitions in short episodes."""
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity=size, gamma=0.9)
    eid = total = 0
    while total < size:
        length = min(int(rng.integers(1, 12)), size - total)
        actions = (rng.integers(0, 5, length) if action_dim is None
                   else rng.standard_normal((length, action_dim)))
        buf.append_episode(Episode(id=eid, transitions=EpisodeArrays(
            states=rng.standard_normal((length, width)), actions=actions,
            rewards=rng.standard_normal(length), stages=rng.integers(0, 3, length),
            done=np.arange(length) == length - 1)))
        eid += int(rng.integers(1, 3))
        total += length
    save_jsonl(buf, path)
    return path.read_text().splitlines()


def _outcome(load, path):
    """The buffer ``load`` returns, or the text of the ``JsonlParseError`` it raises."""
    try:
        return load(path, gamma=0.9)
    except JsonlParseError as exc:
        return str(exc)


def _assert_loaders_agree(path):
    """Both loaders give equal columns, bit for bit, or the same line and message."""
    expected, got = _outcome(load_jsonl_oracle, path), _outcome(load_jsonl, path)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return expected
    assert len(got) == len(expected)
    for name in ("states", "actions", "rewards", "stages", "done", "rtg"):
        a, b = expected._rows[name], got._rows[name]
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for name in ("id", "row", "length"):
        assert got._episodes[name].tolist() == expected._episodes[name].tolist(), name
    return got


def _write_edited_dump(data, path, lines: list[str], at, continuous: bool) -> None:
    """Write ``lines`` to ``path`` after up to four drawn changes, each on a line drawn from
    ``at``, and maybe an overflow followed by a change on its line or a few lines on."""
    edits = data.draw(st.lists(st.tuples(at, _mutation(continuous)), max_size=4))
    if data.draw(st.booleans()):
        first = data.draw(at)
        edits.append((first, data.draw(_overflow(continuous))))
        broken = st.sampled_from(_KEYS).flatmap(  # a wrong type, a missing key or bad JSON
            lambda key: st.tuples(st.just("set"), st.just(key), st.sampled_from(_WRONG_TYPES[key]))
            | st.just(("del", key))) | st.tuples(st.just("text"), st.sampled_from(
                ("trailing", "twice", "split", "bom", "list")))
        edits.append((min(first + data.draw(st.integers(0, 2)), len(lines) - 1),
                      data.draw(broken)))
    changes: dict[int, list] = {}
    for i, change in edits:  # a line may take two changes, and a record's come first
        changes.setdefault(i, []).append(change)
    for i, line_changes in changes.items():
        line_changes.sort(key=lambda change: change[0] == "text")
        lines[i] = _mutate(lines[i], line_changes)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       size=st.integers(1, 30) | st.integers(_BLOCK - 2, _BLOCK + 2)
       | st.integers(2 * _BLOCK - 1, 2 * _BLOCK + 30),
       width=st.integers(1, 3), action_dim=st.none() | st.integers(1, 2))
def test_load_jsonl_agrees_with_the_per_line_oracle(tmp_path_factory, data, seed, size, width,
                                                    action_dim):
    path = tmp_path_factory.mktemp("oracle") / "dump.jsonl"
    lines = _dump_lines(path, seed, size, width, action_dim)
    # Any line, or one at either side of a block boundary.
    at = st.integers(0, size - 1) | st.sampled_from(
        [i for i in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK) if i < size] or [0])
    _write_edited_dump(data, path, lines, at, action_dim is not None)
    _assert_loaders_agree(path)


_STATE_TOO_LARGE = ("entry", "state", 0, _HUGE)
_EPISODE_PAST_INT64 = ("set", "episode", 2 ** 63)
_REWARD_AS_TEXT = ("set", "reward", "1")


@pytest.mark.parametrize("edits, line, message", [
    # A type error right after a block boundary, and one in the last row of a block.
    ({_BLOCK: [_REWARD_AS_TEXT]}, _BLOCK + 1, "reward must be a JSON number"),
    ({_BLOCK - 1: [_REWARD_AS_TEXT]}, _BLOCK, "reward must be a JSON number"),
    # An overflow in the last pending row beats a type error on the next line, whether the
    # two share a block or the overflow ends one.
    ({_BLOCK - 2: [_EPISODE_PAST_INT64], _BLOCK - 1: [_REWARD_AS_TEXT]}, _BLOCK - 1,
     "Python int too large to convert to C long"),
    ({_BLOCK - 1: [_EPISODE_PAST_INT64], _BLOCK: [_REWARD_AS_TEXT]}, _BLOCK,
     "Python int too large to convert to C long"),
    ({_BLOCK + 5: [_STATE_TOO_LARGE], _BLOCK + 6: [("text", "trailing")]}, _BLOCK + 6,
     "int too large to convert to float"),
    ({3: [_STATE_TOO_LARGE], 4: [("del", "t")]}, 4, "int too large to convert to float"),
    # Within one line too: the state is written before the reward is read.
    ({7: [_STATE_TOO_LARGE, _REWARD_AS_TEXT]}, 8, "int too large to convert to float"),
    ({7: [_EPISODE_PAST_INT64, ("set", "t", "1")]}, 8, "Python int too large to convert"),
    ({7: [_EPISODE_PAST_INT64, ("set", "stage", 1.5)]}, 8, "stage must be a JSON integer"),
    # Without an overflow, the first failing line in the file is reported.
    ({_BLOCK + 3: [("del", "state")], _BLOCK + 9: [_REWARD_AS_TEXT]}, _BLOCK + 4,
     "missing key 'state'"),
])
def test_load_jsonl_reports_the_first_failing_line_across_blocks(tmp_path, edits, line, message):
    path = tmp_path / "dump.jsonl"
    lines = _dump_lines(path, 5, 2 * _BLOCK + 10, 2, None)
    for i, changes in edits.items():
        lines[i] = _mutate(lines[i], changes)
    path.write_text("\n".join(lines) + "\n")
    assert _assert_loaders_agree(path).startswith(f"line {line}: {message}")


# ------------------------------------------------ rows split into ranges across workers

def _split_rows(monkeypatch, cores: int, range_min: int) -> None:
    """Make ``load_jsonl`` see ``cores`` usable cores and split at ``range_min`` rows a range."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(windows, "_RANGE_MIN", range_min)


def _assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 30),
       cores=st.integers(1, 4), range_min=st.integers(1, 8), width=st.integers(1, 3),
       action_dim=st.none() | st.integers(1, 2))
def test_load_jsonl_agrees_with_the_per_line_oracle_across_ranges(
        tmp_path_factory, data, seed, size, cores, range_min, width, action_dim):
    path = tmp_path_factory.mktemp("ranges") / "dump.jsonl"
    lines = _dump_lines(path, seed, size, width, action_dim)
    ranges = max(1, min(cores, size // range_min))
    # Any line, or one at either side of a range boundary.
    at = st.integers(0, size - 1) | st.sampled_from(sorted(
        {min(max(size * j // ranges + k, 0), size - 1) for j in range(ranges) for k in (-1, 0)}))
    _write_edited_dump(data, path, lines, at, action_dim is not None)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _split_rows(monkeypatch, cores, range_min)
        _assert_loaders_agree(path)
    _assert_no_worker_left()


@pytest.mark.parametrize("edits, line, message", [
    # An overflow in the last row of the first range beats a type error in the second's first.
    ({9: [_EPISODE_PAST_INT64], 10: [_REWARD_AS_TEXT]}, 10,
     "Python int too large to convert to C long"),
    ({29: [_STATE_TOO_LARGE], 30: [("del", "t")]}, 30, "int too large to convert to float"),
    # Failures in two ranges: the lower line wins, whichever range is checked here.
    ({15: [("del", "state")], 25: [_REWARD_AS_TEXT]}, 16, "missing key 'state'"),
    ({5: [("set", "done", 0)], 35: [("text", "trailing")]}, 6, "done must be a JSON bool"),
    # A first record that fixes no row shape, and one whose state is not numbers.
    ({0: [("text", "list")]}, 1, r"expected a JSON object, got \[1, 2\]"),
    ({0: [("set", "state", ["1.0"])]}, 1, "state must be a list of JSON numbers"),
    # A line that breaks in two at a range boundary.
    ({10: [("text", "split")]}, 11, "invalid JSON"),
])
def test_load_jsonl_reports_the_first_failing_line_across_ranges(tmp_path, monkeypatch, edits,
                                                                 line, message):
    path = tmp_path / "dump.jsonl"
    lines = _dump_lines(path, 5, 40, 2, None)
    for i, changes in edits.items():
        lines[i] = _mutate(lines[i], changes)
    path.write_text("\n".join(lines) + "\n")
    _split_rows(monkeypatch, 4, 10)  # rows 0-9, 10-19, 20-29 and 30-39
    assert re.match(f"line {line}: {message}", _assert_loaders_agree(path))
    _assert_no_worker_left()


@pytest.mark.parametrize("bad", [None, 23])
def test_load_jsonl_reads_blank_lines_and_cr_endings_at_a_range_boundary(tmp_path, monkeypatch,
                                                                       bad):
    path = tmp_path / "dump.jsonl"
    lines = _dump_lines(path, 6, 40, 3, 2)
    if bad is not None:
        lines[bad] = _mutate(lines[bad], [_REWARD_AS_TEXT])
    # Rows 8-11 end in \r, \r\n and \n, with blank lines, of each ending, at the boundaries.
    text = "\n".join(lines[:8]) + "\n" + "\r".join(lines[8:10]) + "\r\r \n\r\n\t\r" + \
        "\r\n".join(lines[10:12]) + "\n\n" + "\n".join(lines[12:20]) + "\n \n" + \
        "\n".join(lines[20:]) + "\n"
    path.write_bytes(text.encode())
    _split_rows(monkeypatch, 4, 10)
    got = _assert_loaders_agree(path)
    if bad is not None:
        assert got.startswith(f"line {bad + 7}: reward must be a JSON number")
    _assert_no_worker_left()


def _forked_range_case(tmp_path, edits):
    path = tmp_path / "dump.jsonl"
    lines = _dump_lines(path, 8, 40, 2, None)
    for i, changes in edits.items():
        lines[i] = _mutate(lines[i], changes)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("edits", [{}, {3: [_REWARD_AS_TEXT]}, {36: [("del", "episode")]},
                                   {5: [_EPISODE_PAST_INT64]}], ids=[
    "success", "error-in-first-range", "error-in-last-range", "overflow-in-first-range"])
@pytest.mark.parametrize("fault", ["none", "worker-killed", "fork-fails"])
def test_load_jsonl_reaps_every_worker_and_keeps_its_result(tmp_path, monkeypatch, edits, fault):
    """Workers that die, or that cannot be forked, leave the buffer or the error unchanged."""
    path = _forked_range_case(tmp_path, edits)
    _split_rows(monkeypatch, 4, 10)
    parent, check_range = os.getpid(), windows._check_range
    forks = []

    def fork():
        if fault == "fork-fails":
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = real_fork()
        forks.append(pid)
        return pid

    def check_range_or_die(*args):
        if fault == "worker-killed" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return check_range(*args)

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(windows, "_check_range", check_range_or_die)
    assert isinstance(_assert_loaders_agree(path), str) == bool(edits)
    assert len(forks) == (0 if fault == "fork-fails" else 3)
    _assert_no_worker_left()


def test_load_jsonl_reaps_every_worker_when_interrupted(tmp_path, monkeypatch):
    path = _forked_range_case(tmp_path, {})
    _split_rows(monkeypatch, 4, 10)
    parent, check_range = os.getpid(), windows._check_range

    def interrupt_the_parent(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return check_range(*args)

    monkeypatch.setattr(windows, "_check_range", interrupt_the_parent)
    with pytest.raises(KeyboardInterrupt):
        load_jsonl(path, gamma=0.9)
    _assert_no_worker_left()


@pytest.mark.parametrize("cores", [1, 4])
@pytest.mark.parametrize("pad", ["\u3000", "\x1c", "\x85"])
def test_load_jsonl_reads_a_first_record_padded_with_unicode_whitespace(tmp_path, monkeypatch,
                                                                          cores, pad):
    """The first record fixes the row shape once stripped, as every line is checked."""
    path = tmp_path / "dump.jsonl"
    lines = _dump_lines(path, 10, 40, 2, 1)
    lines[0] = pad + lines[0] + pad
    path.write_text("\n".join(lines) + "\n")
    _split_rows(monkeypatch, cores, 10)
    assert not isinstance(_assert_loaders_agree(path), str)


# The last case is the longest dump the other tests write, at the real threshold.
@pytest.mark.parametrize("size, cores, range_min", [(9, 4, 10), (100, 1, 10),
                                                    (2 * _BLOCK + 30, 4, None)])
def test_load_jsonl_forks_no_worker_for_a_short_dump_or_one_core(tmp_path, monkeypatch, size,
                                                                 cores, range_min):
    path = tmp_path / "dump.jsonl"
    _dump_lines(path, 9, size, 2, None)
    _split_rows(monkeypatch, cores, range_min or windows._RANGE_MIN)
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    _assert_loaders_agree(path)
    assert forks == []


def _shuffled(lines: list[str], seed: int) -> list[str]:
    return [lines[i] for i in np.random.default_rng(seed).permutation(len(lines))]


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("edits", [{}, {12: [("set", "t", 0)]}, {30: [("set", "t", 99)]},
                                   {20: [("set", "done", True)]}],
                         ids=["good", "duplicate-t", "gap-in-t", "early-done"])
def test_load_jsonl_of_in_order_and_shuffled_lines_agrees_with_the_oracle(tmp_path, monkeypatch,
                                                                         cores, edits):
    """Rows in (episode, t) order are taken as parsed, shuffled ones are reordered first:
    both give the oracle's columns, or its error, and shuffling changes no column."""
    lines = _dump_lines(tmp_path / "dump.jsonl", 11, 40, 3, None)
    for i, changes in edits.items():
        lines[i] = _mutate(lines[i], changes)
    _split_rows(monkeypatch, cores, 10)
    got = {}
    for order, text in (("in-order", lines), ("shuffled", _shuffled(lines, 5))):
        path = tmp_path / f"{order}.jsonl"
        path.write_text("\n".join(text) + "\n")
        got[order] = _assert_loaders_agree(path)
        _assert_no_worker_left()
    if edits:
        assert isinstance(got["shuffled"], str) and isinstance(got["in-order"], str)
        return
    for name in ("states", "actions", "rewards", "stages", "done", "rtg"):
        assert got["shuffled"]._rows[name].tobytes() == got["in-order"]._rows[name].tobytes()


@pytest.mark.parametrize("shuffle, bound", [(False, 0.5), (True, 1.6)])
def test_load_jsonl_peak_allocation_holds_no_second_copy_of_the_columns(tmp_path, monkeypatch,
                                                                        shuffle, bound):
    """A forked load of about 40k transitions allocates less than one copy of its columns.

    The parsed columns live in anonymous shared mappings, which ``tracemalloc``
    does not trace; the buffer takes them as its store. What is traced is the
    return-to-go, the episode table and the checks' temporaries: 0.21 of the
    store's column bytes for rows in order. Shuffled rows add one sorted copy
    of every column: 1.37. Copying the parsed columns into the store, beside
    a sorted copy of them, read 2.6 in both cases.
    """
    lines = _dump_lines(tmp_path / "dump.jsonl", 12, 40_000, 8, None)
    if shuffle:
        (tmp_path / "dump.jsonl").write_text("\n".join(_shuffled(lines, 6)) + "\n")
    _split_rows(monkeypatch, 2, 10_000)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    tracemalloc.start()
    try:
        buf = load_jsonl(tmp_path / "dump.jsonl", gamma=0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_no_worker_left()
    assert forks == [1] and len(buf) == 40_000
    stored = sum(buf._rows[name].nbytes for name in (*COLUMNS, "rtg"))
    assert peak < bound * stored


@pytest.mark.parametrize("key", ["state", "action", "reward", "episode", "t"])
def test_load_jsonl_names_a_missing_key(tmp_path, key):
    path = tmp_path / "dump.jsonl"
    rec = _record(0, 1)
    del rec[key]
    path.write_text(f"{_GOOD}\n{json.dumps(rec)}\n")
    with pytest.raises(JsonlParseError, match=f"^line 2: missing key '{key}'$"):
        load_jsonl(path, gamma=1.0)
