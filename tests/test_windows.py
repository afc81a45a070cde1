from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdreplay.windows import (
    Episode,
    JsonlParseError,
    NoValidWindowsError,
    ReplayBuffer,
    Transition,
    discounted_window_return,
    load_jsonl,
    save_jsonl,
)


def make_episode(eid: int, length: int, dim: int = 3, rng=None, stage=0) -> Episode:
    rng = rng or np.random.default_rng(eid)
    transitions = [
        Transition(
            state=rng.standard_normal(dim),
            action=int(rng.integers(4)),
            reward=float(rng.random()),
            stage_label=stage,
            done=(t == length - 1),
        )
        for t in range(length)
    ]
    return Episode(id=eid, transitions=transitions)


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
    trs = [
        Transition(state=np.zeros(2), action=0, reward=0.0, done=True),
        Transition(state=np.zeros(2), action=0, reward=0.0, done=True),
    ]
    with pytest.raises(ValueError, match="done"):
        ReplayBuffer(capacity=10, gamma=0.9).append_episode(Episode(id=0, transitions=trs))


def test_episode_ids_strictly_increasing():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(5, 4))
    with pytest.raises(ValueError, match="strictly increasing"):
        buf.append_episode(make_episode(5, 4))


def test_non_finite_reward_rejected():
    with pytest.raises(ValueError, match="finite"):
        Transition(state=np.zeros(2), action=0, reward=float("nan"))


def test_episode_with_non_finite_state_rejected():
    trs = [
        Transition(state=np.zeros(2), action=0, reward=0.0),
        Transition(state=np.array([0.0, np.inf]), action=0, reward=0.0, done=True),
    ]
    buf = ReplayBuffer(capacity=10, gamma=0.9)
    with pytest.raises(ValueError, match="step 1: state must be finite"):
        buf.append_episode(Episode(id=0, transitions=trs))
    assert len(buf) == 0


def test_episode_mixing_action_kinds_rejected():
    trs = [
        Transition(state=np.zeros(2), action=0, reward=0.0),
        Transition(state=np.zeros(2), action=np.array([0.5]), reward=0.0, done=True),
    ]
    with pytest.raises(ValueError, match="action is continuous"):
        ReplayBuffer(capacity=10, gamma=0.9).append_episode(Episode(id=0, transitions=trs))


def test_empty_episode_rejected():
    with pytest.raises(ValueError, match="at least one transition"):
        ReplayBuffer(capacity=10, gamma=0.9).append_episode(Episode(id=0, transitions=[]))


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
    assert sorted(w.start for w in pool) == [0, 1, 2, 3, 4, 5]


def test_pool_draw_is_without_replacement():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 10))
    buf.append_episode(make_episode(1, 10))
    pool = buf.sample_candidate_pool(4, 5, seed=3)
    pairs = [(w.episode_id, w.start) for w in pool]
    assert len(pairs) == 4
    assert len(set(pairs)) == 4


def test_pool_sampling_deterministic_for_seed():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 12))
    buf.append_episode(make_episode(1, 12))
    first = [(w.episode_id, w.start) for w in buf.sample_candidate_pool(5, 4, seed=42)]
    second = [(w.episode_id, w.start) for w in buf.sample_candidate_pool(5, 4, seed=42)]
    assert first == second


def test_no_valid_windows_is_an_error():
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    buf.append_episode(make_episode(0, 3))
    with pytest.raises(ValueError, match="no valid windows"):
        buf.sample_candidate_pool(2, 5, seed=0)


def _window_with_rewards(rewards, gamma=0.9):
    trs = [
        Transition(state=np.zeros(2), action=0, reward=float(r), done=(i == len(rewards) - 1))
        for i, r in enumerate(rewards)
    ]
    buf = ReplayBuffer(capacity=100, gamma=gamma)
    buf.append_episode(Episode(id=0, transitions=trs))
    return buf.materialize(0, 0, len(rewards))


def test_discounted_return_undiscounted_sum():
    w = _window_with_rewards([1, 1, 1])
    assert discounted_window_return(w, 1.0) == pytest.approx(3.0)


def test_discounted_return_halving():
    w = _window_with_rewards([1, 1, 1])
    assert discounted_window_return(w, 0.5) == pytest.approx(1.75)


def test_discounted_return_zero_rewards():
    w = _window_with_rewards([0, 0, 0])
    for gamma in (0.1, 0.5, 1.0):
        assert discounted_window_return(w, gamma) == 0.0


def test_window_return_matches_rtg_only_at_episode_tail():
    buf = ReplayBuffer(capacity=100, gamma=0.8)
    buf.append_episode(make_episode(0, 6, rng=np.random.default_rng(5)))
    tail = buf.materialize(0, 1, 5)  # ends exactly at the episode boundary
    head = buf.materialize(0, 0, 5)
    assert discounted_window_return(tail, 0.8) == pytest.approx(tail.rtg[0], rel=1e-9)
    assert discounted_window_return(head, 0.8) != pytest.approx(head.rtg[0], rel=1e-9)


def test_window_stage_label_majority_with_low_tie():
    trs = [
        Transition(state=np.zeros(2), action=0, reward=0.0, stage_label=s)
        for s in [2, 2, 1, 1]
    ]
    buf = ReplayBuffer(capacity=10, gamma=0.9)
    buf.append_episode(Episode(id=0, transitions=trs))
    assert buf.materialize(0, 0, 4).stage_label == 1


def test_jsonl_round_trip_and_deterministic_bytes(tmp_path):
    buf = ReplayBuffer(capacity=100, gamma=0.9)
    rng = np.random.default_rng(2)
    buf.append_episode(make_episode(0, 6, rng=rng, stage=1))
    buf.append_episode(make_episode(1, 4, rng=rng, stage=2))
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    save_jsonl(buf, path_a)
    save_jsonl(buf, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    loaded = load_jsonl(path_a, gamma=0.9)
    assert len(loaded) == len(buf)
    for orig, back in zip(buf.episodes, loaded.episodes):
        assert orig.id == back.id
        for a, b in zip(orig.transitions, back.transitions):
            np.testing.assert_allclose(a.state, b.state)
            assert a.action == b.action
            assert a.reward == pytest.approx(b.reward)
            assert a.stage_label == b.stage_label
            assert a.done == b.done


def test_jsonl_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"episode": 0, "t": 0, "state": [0.0], "action": 1, "reward": 0.0}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        load_jsonl(path)


def _assert_gather_matches_materialize(buf, horizon):
    pairs = buf.valid_windows(horizon)
    batch = buf.gather(np.arange(len(pairs)), horizon)
    assert len(batch) == len(pairs)
    for b, (eid, start) in enumerate(pairs):
        w = buf.materialize(eid, start, horizon)
        np.testing.assert_array_equal(batch.states[b], w.states)
        np.testing.assert_array_equal(batch.actions[b], w.actions)
        np.testing.assert_array_equal(batch.rewards[b], w.rewards)
        np.testing.assert_array_equal(batch.rtg[b], w.rtg)


def test_gather_matches_materialize_through_fifo_eviction():
    buf = ReplayBuffer(capacity=60, gamma=0.9)
    rng = np.random.default_rng(3)
    for eid in range(40):  # enough appends to grow and compact the columns
        buf.append_episode(make_episode(eid, int(rng.integers(1, 15)), rng=rng))
        for horizon in (1, 4):
            _assert_gather_matches_materialize(buf, horizon)
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
    for eid, length in enumerate(lengths):
        length = min(length, capacity)
        buf.append_episode(make_episode(eid, length, dim=2))
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
    _assert_gather_matches_materialize(buf, horizon)


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
])
def test_load_jsonl_rejects_inconsistent_steps_and_actions(tmp_path, records, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(JsonlParseError, match=f"line {line}: .*{message}"):
        load_jsonl(path)
