"""Columnar replay storage, arithmetic window ids, and window gathering."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class EpisodeArrays:
    """One episode's steps as columns, row t being step t.

    ``ReplayBuffer.append_episode`` checks and copies them; rewards and
    states must be finite, stages non-negative, and only the last step done.
    ``actions`` may be anything ``np.asarray`` turns into one array: 1-D is
    discrete and must be of integer dtype, 2-D continuous, one vector of
    finite entries per step.
    """

    states: np.ndarray   # (T, d_s)
    actions: np.ndarray  # (T,) discrete or (T, d_a)
    rewards: np.ndarray  # (T,)
    stages: np.ndarray   # (T,) sub-task stage label of each step
    done: np.ndarray     # (T,)

    def __len__(self) -> int:
        return len(self.rewards)


@dataclass
class Episode:
    id: int
    transitions: EpisodeArrays

    def __len__(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class TrajectoryWindow:
    """A length-H contiguous slice of one episode: one row of a ``WindowBatch``.

    ``rtg`` holds the discounted return-to-go computed to the end of the
    *episode*, so ``rtg[j] = rewards[j] + gamma * rtg[j+1]`` holds across the
    window and beyond its right edge.
    """

    episode_id: int
    start: int
    horizon: int
    states: np.ndarray   # (H, d_s)
    actions: np.ndarray  # (H,) discrete or (H, d_a)
    rewards: np.ndarray  # (H,)
    rtg: np.ndarray      # (H,)
    stage_label: int


@dataclass(frozen=True)
class WindowBatch:
    """B windows of one horizon H as stacked arrays; row b is one window.

    Window b is the slice ``[starts[b], starts[b] + H)`` of episode
    ``episode_ids[b]``.
    """

    states: np.ndarray       # (B, H, d_s)
    actions: np.ndarray      # (B, H) discrete or (B, H, d_a)
    rewards: np.ndarray      # (B, H)
    rtg: np.ndarray          # (B, H)
    stages: np.ndarray       # (B, H)
    episode_ids: np.ndarray  # (B,)
    starts: np.ndarray       # (B,)

    def __len__(self) -> int:
        return self.states.shape[0]

    def returns(self, gamma: float) -> np.ndarray:
        """Discounted reward sum of each window, truncated to it: sum_j gamma^j * rewards[:, j]."""
        return self.rewards @ gamma ** np.arange(self.rewards.shape[1])

    @cached_property
    def stage_labels(self) -> np.ndarray:
        """Majority stage of each window, (B,), the smallest label on ties; made once."""
        return _majority_stage(self.stages)

    def __getitem__(self, index: int) -> TrajectoryWindow:
        return TrajectoryWindow(
            episode_id=int(self.episode_ids[index]),
            start=int(self.starts[index]),
            horizon=self.rtg.shape[1],
            states=self.states[index],
            actions=self.actions[index],
            rewards=self.rewards[index],
            rtg=self.rtg[index],
            stage_label=int(_majority_stage(self.stages[[index]])[0]),
        )


def _majority_stage(stages: np.ndarray) -> np.ndarray:
    """Most frequent label of each row of (B, H) stages, the smallest one on ties."""
    counts = (stages[:, :, None] == stages[:, None, :]).sum(axis=2)  # count of each step's label
    tied = counts == counts.max(axis=1, keepdims=True)
    return np.where(tied, stages, np.iinfo(stages.dtype).max).min(axis=1)


class NoValidWindowsError(ValueError):
    """The buffer holds no window of the requested horizon."""


class _RowError(ValueError):
    """An ingest rule broken by the row at position ``row`` of the rows being appended."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class _Columns:
    """Named arrays sharing one live row range that grows amortized.

    Rows keep a logical index for life: logical row ``r`` sits at position
    ``r - first`` of every live view. Dropping rows from the front only
    advances the head. When the arrays run out of room, the live rows are
    compacted in place if that frees at least half of the arrays, and moved
    into arrays of twice the needed size otherwise, so each appended row is
    copied a constant number of times on average. Columns whose dtype and
    row shape are known up front can be given empty at construction;
    otherwise the first ``extend`` creates them.
    """

    def __init__(self, **empty: np.ndarray):
        self._arrays: dict[str, np.ndarray] = empty
        self._head = 0
        self._tail = 0
        self.first = 0  # logical index of the first live row

    def __len__(self) -> int:
        return self._tail - self._head

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name][self._head:self._tail]

    def extend(self, **blocks: np.ndarray) -> None:
        n = len(next(iter(blocks.values())))
        if not self._arrays:  # copied, so the columns never share memory with a block
            self._arrays = {name: np.array(block) for name, block in blocks.items()}
            self._tail = n
            return
        size = len(next(iter(self._arrays.values())))
        if self._tail + n > size:
            live = len(self)
            grow = live + n > size // 2
            for name, arr in self._arrays.items():
                target = np.empty((2 * (live + n),) + arr.shape[1:], arr.dtype) if grow else arr
                target[:live] = arr[self._head:self._tail]
                self._arrays[name] = target
            self._head, self._tail = 0, live
        for name, block in blocks.items():
            self._arrays[name][self._tail:self._tail + n] = block
        self._tail += n

    def drop(self, n: int) -> None:
        self._head += n
        self.first += n


def _action_kind(shape: tuple[int, ...]) -> str:
    """Name of the action kind whose row shape is ``shape``: () is discrete."""
    return f"continuous of shape {shape}" if shape else "discrete"


def _reverse_rtg(rewards: np.ndarray, lengths: np.ndarray, gamma: float) -> np.ndarray:
    """Per-episode return-to-go by the recurrence rtg[t] = r[t] + gamma * rtg[t+1]."""
    r = rewards.tolist()
    out = [0.0] * len(r)
    end = len(r)
    for length in reversed(lengths.tolist()):
        acc = 0.0
        for t in range(end - 1, end - length - 1, -1):
            acc = r[t] + gamma * acc
            out[t] = acc
        end -= length
    return np.array(out)


class ReplayBuffer:
    """Columnar episode store with whole-episode FIFO eviction.

    Every field is one array over all stored transitions, episode after
    episode. Capacity is counted in transitions; appending evicts the oldest
    whole episodes until the total fits again, so every stored window stays
    valid.

    For a horizon H, the valid windows are numbered episode-major: the
    stored episodes in order, and within one the starts 0..len-H. A
    window's id is the number of valid windows in older stored episodes
    plus its start, so ids shift down when old episodes are evicted.
    """

    def __init__(self, capacity: int, gamma: float):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.capacity = int(capacity)
        self.gamma = float(gamma)
        self._rows = _Columns()  # states, actions, rewards, stages, done, rtg
        # id, row (logical index of its first row), length
        self._episodes = _Columns(**{name: np.zeros(0, dtype=np.int64)
                                     for name in ("id", "row", "length")})
        self._next_id = 0
        self._offsets: dict[int, np.ndarray] = {}  # _window_offsets per horizon, until _append

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def episodes(self) -> Sequence[Episode]:
        """The stored episodes, oldest first, each rebuilt as an ``Episode`` on access."""
        return _EpisodeView(self)

    @property
    def state_dim(self) -> int | None:
        if not len(self._rows):
            return None
        return self._rows["states"].shape[1]

    def new_episode_id(self) -> int:
        eid = self._next_id
        self._next_id += 1
        return eid

    def append_episode(self, episode: Episode) -> None:
        self._append(ids=np.array([episode.id], dtype=np.int64),
                     lengths=np.array([len(episode)], dtype=np.int64),
                     **vars(episode.transitions))

    def _append(self, ids: np.ndarray, lengths: np.ndarray, states: np.ndarray,
                actions: Sequence, rewards: np.ndarray, stages: np.ndarray,
                done: np.ndarray) -> None:
        """Check whole episodes given as columns, store them, then evict.

        Episode ``ids[i]`` owns the next ``lengths[i]`` rows; ids are strictly
        increasing. ``actions`` holds one action per row and is taken as
        ``np.asarray`` makes it: 1-D is discrete (non-negative integers,
        stored as int64), 2-D continuous, one vector per row (finite, stored
        as float); more dimensions are rejected. That one kind must match the
        stored column's; a ragged sequence has no kind and is rejected. Every
        ingest rule on the rows lives here; one broken by a single row raises
        ``_RowError`` with that row's position. Each column is copied once,
        into the store, so the buffer never shares an array with its caller.
        """
        try:
            actions = np.asarray(actions)
        except ValueError as exc:  # numpy's message for a ragged sequence names no action
            raise ValueError("actions must have one kind: all discrete, or all "
                             "continuous of one shape") from exc
        states = np.asarray(states, dtype=float)
        rewards = np.asarray(rewards, dtype=float)
        stages = np.asarray(stages, dtype=np.int64)
        done = np.asarray(done, dtype=bool)
        if lengths.min() < 1:
            raise ValueError("episode must contain at least one transition")
        longest = int(lengths.max())
        if longest > self.capacity:
            raise ValueError(f"episode of {longest} transitions exceeds capacity {self.capacity}")
        if len(self._episodes):
            last = int(self._episodes["id"][-1])
            if ids[0] <= last:
                raise ValueError(
                    f"episode ids must be strictly increasing ({ids[0]} after {last})"
                )
        if states.ndim != 2:
            raise ValueError(f"states must be vectors of one length, got shape {states.shape}")
        if actions.ndim > 2:
            raise ValueError(f"continuous actions must be one vector per step, "
                             f"got shape {actions.shape}")
        total = int(lengths.sum())
        if (len(states), len(actions)) != (total, total) or not (
                rewards.shape == stages.shape == done.shape == (total,)):
            raise ValueError(f"every column must hold one row per transition ({total})")
        stored = self._rows["actions"] if len(self._rows) else None
        if stored is not None and states.shape[1] != self.state_dim:
            raise ValueError(f"state dim mismatch: buffer has {self.state_dim}, "
                             f"episode has {states.shape[1]}")
        kind = actions.shape[1:]
        if not kind and not np.issubdtype(actions.dtype, np.integer):
            raise ValueError(f"discrete actions must be integers, got dtype {actions.dtype}")
        if stored is not None and kind != stored.shape[1:]:
            raise ValueError(f"action is {_action_kind(kind)}, "
                             f"expected {_action_kind(stored.shape[1:])}")
        step = np.arange(len(rewards)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        problems = {
            "state must be finite": ~np.isfinite(states).all(axis=1),
            "action must be finite": ~np.isfinite(actions.reshape(total, -1)).all(axis=1),
            "discrete action must be non-negative": (actions < 0) if not kind
            else np.zeros(total, dtype=bool),
            "reward must be finite": ~np.isfinite(rewards),
            "stage label must be non-negative": stages < 0,
            "done=True before the final transition": done & (step < np.repeat(lengths - 1,
                                                                              lengths)),
        }
        for message, bad in problems.items():
            if bad.any():
                row = int(bad.argmax())
                episode = np.repeat(ids, lengths)[row]
                raise _RowError(row, f"episode {episode}, step {step[row]}: {message}")

        self._offsets = {}
        first_row = self._rows.first + len(self._rows)
        self._rows.extend(
            states=states,
            actions=actions.astype(float if kind else np.int64, copy=False),
            rewards=rewards,
            stages=stages,
            done=done,
            rtg=_reverse_rtg(rewards, lengths, self.gamma),
        )
        self._episodes.extend(id=ids, row=first_row + np.cumsum(lengths) - lengths,
                              length=lengths)
        self._next_id = max(self._next_id, int(ids[-1]) + 1)
        excess = len(self._rows) - self.capacity
        if excess > 0:
            ends = np.cumsum(self._episodes["length"])
            evicted = int(np.searchsorted(ends, excess)) + 1
            self._rows.drop(int(ends[evicted - 1]))
            self._episodes.drop(evicted)

    # ------------------------------------------------------------ window ids

    def _window_offsets(self, horizon: int) -> np.ndarray:
        """Id of each stored episode's first window, plus the window count at the end.

        Read-only, and kept per horizon until the next append adds or evicts
        episodes.
        """
        offsets = self._offsets.get(horizon)
        if offsets is None:
            if horizon < 1:
                raise ValueError("horizon must be >= 1")
            starts = np.maximum(self._episodes["length"] - horizon + 1, 0)
            offsets = np.concatenate(([0], np.cumsum(starts)))
            offsets.flags.writeable = False
            self._offsets[horizon] = offsets
        return offsets

    def window_count(self, horizon: int) -> int:
        """Number of valid length-``horizon`` windows, i.e. one past the largest id."""
        return int(self._window_offsets(horizon)[-1])

    def _locate(self, ids, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """(stored-episode position, start) of each window id."""
        ids = np.asarray(ids, dtype=np.int64)
        offsets = self._window_offsets(horizon)
        if ids.size and (ids.min() < 0 or ids.max() >= offsets[-1]):
            raise IndexError(f"window ids must lie in [0, {offsets[-1]})")
        # Episodes too short for a window share their offset with the next
        # episode; the rightmost match is the one that holds the window.
        episode = np.searchsorted(offsets, ids, side="right") - 1
        return episode, ids - offsets[episode]

    def window_ids(self, episode_ids, starts, horizon: int) -> np.ndarray:
        """Ids of the windows (episode_ids[i], starts[i]), in order.

        Windows whose episode has been evicted have no id and are left out.
        """
        episode_ids = np.asarray(episode_ids, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        stored = self._episodes["id"]
        if not len(stored):
            return np.zeros(0, dtype=np.int64)
        position = np.minimum(np.searchsorted(stored, episode_ids), len(stored) - 1)
        kept = stored[position] == episode_ids
        position, starts = position[kept], starts[kept]
        offsets = self._window_offsets(horizon)
        if np.any((starts < 0) | (starts >= offsets[position + 1] - offsets[position])):
            raise ValueError(f"window start out of range for horizon {horizon}")
        return offsets[position] + starts

    def valid_windows(self, horizon: int) -> list[tuple[int, int]]:
        """All (episode_id, start) pairs admitting a length-``horizon`` window, in id order."""
        episode, start = self._locate(np.arange(self.window_count(horizon)), horizon)
        return list(zip(self._episodes["id"][episode].tolist(), start.tolist()))

    def gather(self, ids, horizon: int) -> WindowBatch:
        """The windows with the given ids as (B, H, ...) arrays, by one ``take`` per field."""
        episode, start = self._locate(ids, horizon)
        first = self._episodes["row"][episode] - self._rows.first + start
        rows = first[:, None] + np.arange(horizon)
        return WindowBatch(
            states=self._rows["states"].take(rows, axis=0),
            actions=self._rows["actions"].take(rows, axis=0),
            rewards=self._rows["rewards"].take(rows),
            rtg=self._rows["rtg"].take(rows),
            stages=self._rows["stages"].take(rows),
            episode_ids=self._episodes["id"][episode],
            starts=start,
        )

    # ------------------------------------------------------------ windows

    def _episode_rows(self, episode: int) -> slice:
        """Live-row slice of the stored episode at position ``episode``."""
        row = int(self._episodes["row"][episode]) - self._rows.first
        return slice(row, row + int(self._episodes["length"][episode]))

    def materialize(self, episode_id: int, start: int, horizon: int) -> TrajectoryWindow:
        ids = self.window_ids([episode_id], [start], horizon)
        if not ids.size:
            raise KeyError(f"episode {episode_id} not in buffer (evicted?)")
        return self.gather(ids, horizon)[0]

    def sample_candidate_pool(self, n: int, horizon: int, seed) -> WindowBatch:
        """Draw min(n, #valid starts) windows uniformly without replacement.

        ``seed`` may be an int or a numpy Generator; the draw is deterministic
        for a given seed and buffer contents.
        """
        total = self.window_count(horizon)
        if total == 0:
            raise NoValidWindowsError(
                f"no valid windows: no stored episode has length >= {horizon}"
            )
        rng = np.random.default_rng(seed)
        return self.gather(rng.choice(total, size=min(int(n), total), replace=False), horizon)


class _EpisodeView(Sequence):
    """Read-only sequence over a buffer's stored episodes.

    Counting is O(1); each item is rebuilt from the columns when accessed and
    reflects the buffer at that moment.
    """

    def __init__(self, buffer: ReplayBuffer):
        self._buffer = buffer

    def __len__(self) -> int:
        return len(self._buffer._episodes)

    def __getitem__(self, index: int) -> Episode:
        buffer = self._buffer
        if not -len(self) <= index < len(self):
            raise IndexError("episode index out of range")
        index %= len(self)
        rows, cols = buffer._episode_rows(index), buffer._rows
        return Episode(id=int(buffer._episodes["id"][index]), transitions=EpisodeArrays(
            **{column.name: cols[column.name][rows].copy() for column in fields(EpisodeArrays)}))


_LINE = ('{"episode": %d, "t": %d, "state": %r, "action": %r, "reward": %r, "stage": %d, '
         '"done": %s}\n')


def save_jsonl(buffer: ReplayBuffer, path: str | Path) -> None:
    """Export one JSON object per transition, episode by episode, ``t`` from 0.

    Each line is the text ``json.dumps`` writes for the record, with its keys
    in the order ``episode``, ``t``, ``state``, ``action``, ``reward``,
    ``stage``, ``done``, ``", "`` between items and ``": "`` after each key:
    integers in decimal, ``done`` as ``true`` or ``false``, and every float
    (the state's entries, a continuous action's, the reward) as its ``repr``,
    which is the JSON text of a finite float; the buffer stores only finite
    ones. A discrete action is an integer, a continuous one a list. Lines are
    written one episode at a time.
    """
    cols = buffer._rows
    with open(path, "w") as fh:
        for episode, eid in enumerate(buffer._episodes["id"].tolist()):
            rows = buffer._episode_rows(episode)
            records = zip(cols["states"][rows].tolist(), cols["actions"][rows].tolist(),
                          cols["rewards"][rows].tolist(), cols["stages"][rows].tolist(),
                          cols["done"][rows].tolist())
            fh.writelines(_LINE % (eid, t, state, action, reward, stage,
                                   "true" if done else "false")
                          for t, (state, action, reward, stage, done) in enumerate(records))


class JsonlParseError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


_NUMBER_TYPES = frozenset((int, float))  # a JSON number: not a bool, which is an int subclass
_scan = json.JSONDecoder().scan_once  # the C scanner under json.loads, without its wrapper
_BLOCK = 1024  # checked rows collected before they are written into the columns


def _kind_error(key: str, kind: str, value) -> TypeError:
    return TypeError(f"{key} must be a JSON {kind}, got {json.dumps(value)}")


def _write_rows(columns: list[tuple[np.ndarray, int]], start: int,
                pending: tuple[list, ...]) -> None:
    """Write rows ``start``, ``start + 1``, ... of each column, one slice assignment per column.

    Column c is a flat view holding ``columns[c][1]`` entries per row, and
    ``pending[c]`` the flat entries of its next rows; the first column holds
    the rows' line numbers. The last row may stop short, at the first column
    that lacks its entries. If a value does not fit its column (an integer
    outside int64, or too large for a float), the rows are written again one
    at a time, each in column order, so the error names the line of the
    first row that holds such a value, with the message its own write gives.
    """
    try:
        for (column, width), values in zip(columns, pending):
            column[start * width:start * width + len(values)] = values
    except (OverflowError, ValueError):
        for i, lineno in enumerate(pending[0]):
            try:
                for (column, width), values in zip(columns, pending):
                    if len(values) < (i + 1) * width:
                        break
                    row = (start + i) * width
                    column[row:row + width] = values[i * width:(i + 1) * width]
            except (OverflowError, ValueError) as exc:
                raise JsonlParseError(lineno, str(exc)) from exc


def undecodable_line(path: str | Path, encoding: str) -> tuple[int, str]:
    """The first line of ``path`` that is not ``encoding`` text: (its number, why).

    Lines split where a text-mode read splits them, at \\n, \\r and \\r\\n.
    Meant for a file whose text read failed: in UTF-8 no character spans a line
    break, so such a file has a line that fails on its own.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode(encoding)
        except UnicodeDecodeError as exc:
            return lineno, (f"byte 0x{line[exc.start]:02x} at column {exc.start + 1} "
                            f"is not {encoding} text")
    return len(lines), f"not {encoding} text"


def load_jsonl(path: str | Path, gamma: float) -> ReplayBuffer:
    """Rebuild a buffer from the JSON-lines transition format.

    Lines may come in any order; within an episode, ``t`` must run 0, 1, ...
    without duplicates or gaps. The episodes then pass the same checks as
    ``ReplayBuffer.append_episode``. ``episode``, ``t``, ``stage`` and a
    discrete action must be JSON integers, ``reward`` a JSON number and
    ``done`` a JSON bool; ``stage`` and ``done`` default to 0 and false.
    ``state`` and a continuous action are lists of JSON numbers. The first
    line fixes the state width and the action kind: an integer makes the
    actions discrete (int64), a list of d numbers continuous (float, d per
    row). A violation raises ``JsonlParseError`` naming the offending line, as
    does a byte that is not text in the file's encoding.

    The checks on single lines run line by line in file order, so the error
    names the first line that breaks one. On a line, the JSON comes first,
    then the state and the action, then ``reward``, ``stage``, ``episode``,
    ``t`` and ``done``. A required key that is absent gives ``missing key
    'reward'`` (with that key's name), and an integer too large for its
    column (outside int64, or too large for a float) is an error on its
    line. The checks on whole episodes follow once every line has passed.
    """
    try:
        with open(path) as fh:
            count = sum(1 for line in fh if line.strip())
    except UnicodeDecodeError as exc:
        lineno, reason = undecodable_line(path, exc.encoding)
        raise JsonlParseError(lineno, f"{reason} (in {path})") from exc
    episode, step, lines, stages = (np.empty(count, dtype=np.int64) for _ in range(4))
    rewards, done = np.empty(count), np.empty(count, dtype=bool)
    states = actions = None  # allocated at the first record, which fixes their row shapes
    columns = []  # (flat view, entries per row) of each, in the order a line is checked
    pending = tuple([] for _ in range(8))  # per column, the checked entries not yet written
    add_line, add_reward, add_stage, add_episode, add_step, add_done = (
        pending[c].append for c in (0, 3, 4, 5, 6, 7))
    add_state = pending[1].extend
    n = 0  # rows written
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None
            if end != len(line):  # not one JSON value: json.loads names the problem
                _write_rows(columns, n, pending)  # an earlier line's overflow is reported first
                try:
                    rec = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
                    problem = getattr(exc, "msg", exc)  # a JSONDecodeError's, without its position
                    raise JsonlParseError(lineno, f"invalid JSON ({problem})") from exc
            try:
                state, action = rec["state"], rec["action"]
                if type(state) is not list or not _NUMBER_TYPES.issuperset(map(type, state)):
                    raise TypeError("state must be a list of JSON numbers, "
                                    f"got {json.dumps(state)}")
                if type(action) is not int and (type(action) is not list or
                                                 not _NUMBER_TYPES.issuperset(map(type, action))):
                    raise TypeError("action must be a JSON integer or a list of JSON numbers, "
                                    f"got {json.dumps(action)}")
                shape = (len(action),) if type(action) is list else ()
                if states is None:
                    width, kind = len(state), shape
                    states = np.empty((count, width))
                    actions = np.empty((count, *kind), dtype=float if kind else np.int64)
                    columns = [(lines, 1), (states.reshape(-1), width),
                               (actions.reshape(-1), kind[0] if kind else 1), (rewards, 1),
                               (stages, 1), (episode, 1), (step, 1), (done, 1)]
                    add_action = pending[2].extend if kind else pending[2].append
                if len(state) != width:
                    raise ValueError(f"state has {len(state)} entries, expected {width}")
                if shape != kind:
                    raise ValueError(f"action is {_action_kind(shape)}, "
                                     f"expected {_action_kind(kind)}")
                # Each entry is added once it passes its check, so a row stops at its line's
                # first failing check, and writing the rows writes what was read before it.
                add_line(lineno)
                add_state(state)
                add_action(action)
                value = rec["reward"]
                if type(value) not in _NUMBER_TYPES:
                    raise _kind_error("reward", "number", value)
                add_reward(value)
                value = rec.get("stage", 0)
                if type(value) is not int:
                    raise _kind_error("stage", "integer", value)
                add_stage(value)
                value = rec["episode"]
                if type(value) is not int:
                    raise _kind_error("episode", "integer", value)
                add_episode(value)
                value = rec["t"]
                if type(value) is not int:
                    raise _kind_error("t", "integer", value)
                add_step(value)
                value = rec.get("done", False)
                if type(value) is not bool:
                    raise _kind_error("done", "bool", value)
                add_done(value)
            except (KeyError, TypeError, ValueError) as exc:
                if type(rec) is not dict:
                    problem = f"expected a JSON object, got {json.dumps(rec)}"
                elif isinstance(exc, KeyError):
                    problem = f"missing key {exc.args[0]!r}"
                else:
                    problem = str(exc)
                _write_rows(columns, n, pending)  # an overflow read before this check comes first
                raise JsonlParseError(lineno, problem) from exc
            if len(pending[0]) == _BLOCK:
                _write_rows(columns, n, pending)
                n += _BLOCK
                for entries in pending:
                    entries.clear()
    _write_rows(columns, n, pending)
    del columns  # so that rebinding a column below frees its file-order array
    buffer = ReplayBuffer(capacity=max(count, 1), gamma=gamma)
    if count == 0:
        return buffer

    order = np.lexsort((step, episode))  # stable: duplicates keep file order
    episode, step, lines = episode[order], step[order], lines[order]
    ids, first, lengths = np.unique(episode, return_index=True, return_counts=True)
    expected = np.arange(count) - np.repeat(first, lengths)
    bad = np.flatnonzero(step != expected)
    if bad.size:
        i = bad[0]
        if i > 0 and episode[i - 1] == episode[i] and step[i - 1] == step[i]:
            problem = f"duplicate t={step[i]} in episode {episode[i]}"
        else:
            problem = f"episode {episode[i]} has t={step[i]} where t={expected[i]} was expected"
        raise JsonlParseError(int(lines[i]), problem)
    # Rebound, so the file-order columns are freed before the buffer copies these.
    states, actions = states[order], actions[order]
    rewards, stages, done = rewards[order], stages[order], done[order]
    try:
        buffer._append(ids=ids, lengths=lengths, states=states, actions=actions,
                       rewards=rewards, stages=stages, done=done)
    except _RowError as exc:
        raise JsonlParseError(int(lines[exc.row]), str(exc)) from exc
    return buffer
