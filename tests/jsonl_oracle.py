"""Per-line reference for the JSONL loader tests.

``load_jsonl`` here checks and writes each line field by field, in the order
``qdreplay.windows.load_jsonl`` must keep: the same columns, or the same
``JsonlParseError`` line and message, for every file. ``undecodable_line``
here reads the whole file and splits all its lines at once, the reference
for the streamed one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from qdreplay.windows import JsonlParseError, ReplayBuffer, _action_kind, _RowError

_JSON_KINDS = {"integer": (int,), "number": (int, float), "bool": (bool,)}
_NUMBER_TYPES = frozenset(_JSON_KINDS["number"])


def _json_typed(rec: dict, key: str, kind: str, default=None):
    """``rec[key]`` (or ``default`` when absent), if it is a JSON value of ``kind``."""
    value = rec[key] if default is None else rec.get(key, default)
    if type(value) not in _JSON_KINDS[kind]:
        raise TypeError(f"{key} must be a JSON {kind}, got {json.dumps(value)}")
    return value


def _number_list(value) -> bool:
    return type(value) is list and _NUMBER_TYPES.issuperset(map(type, value))


def undecodable_line(path: str | Path, encoding: str) -> tuple[int, str]:
    """The first line of ``path`` that is not ``encoding`` text, from the whole file's lines."""
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
    """Rebuild a buffer from the JSON-lines transition format, one line at a time."""
    try:
        with open(path) as fh:
            count = sum(1 for line in fh if line.strip())
    except UnicodeDecodeError as exc:
        lineno, reason = undecodable_line(path, exc.encoding)
        raise JsonlParseError(lineno, f"{reason} (in {path})") from exc
    episode, step, lines, stages = (np.empty(count, dtype=np.int64) for _ in range(4))
    rewards, done = np.empty(count), np.empty(count, dtype=bool)
    states = actions = None
    n = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
                raise JsonlParseError(lineno, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            try:
                state, action = rec["state"], rec["action"]
                if not _number_list(state):
                    raise TypeError("state must be a list of JSON numbers, "
                                    f"got {json.dumps(state)}")
                if type(action) is not int and not _number_list(action):
                    raise TypeError("action must be a JSON integer or a list of JSON numbers, "
                                    f"got {json.dumps(action)}")
                shape = (len(action),) if type(action) is list else ()
                if states is None:
                    states = np.empty((count, len(state)))
                    actions = np.empty((count, *shape), dtype=float if shape else np.int64)
                if len(state) != states.shape[1]:
                    raise ValueError(f"state has {len(state)} entries, expected {states.shape[1]}")
                if shape != actions.shape[1:]:
                    raise ValueError(f"action is {_action_kind(shape)}, "
                                     f"expected {_action_kind(actions.shape[1:])}")
                states[n] = state
                actions[n] = action
                rewards[n] = _json_typed(rec, "reward", "number")
                stages[n] = _json_typed(rec, "stage", "integer", 0)
                episode[n] = _json_typed(rec, "episode", "integer")
                step[n] = _json_typed(rec, "t", "integer")
                done[n] = _json_typed(rec, "done", "bool", False)
            except KeyError as exc:
                raise JsonlParseError(lineno, f"missing key {exc.args[0]!r}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                problem = str(exc) if type(rec) is dict else \
                    f"expected a JSON object, got {json.dumps(rec)}"
                raise JsonlParseError(lineno, problem) from exc
            lines[n] = lineno
            n += 1
    buffer = ReplayBuffer(capacity=max(count, 1), gamma=gamma)
    if count == 0:
        return buffer

    order = np.lexsort((step, episode))
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
    states, actions = states[order], actions[order]
    rewards, stages, done = rewards[order], stages[order], done[order]
    try:
        checked = buffer._checked(ids, lengths, states, actions, rewards, stages, done)
    except _RowError as exc:
        raise JsonlParseError(int(lines[exc.row]), str(exc)) from exc
    buffer._store(ids, lengths, checked)
    return buffer
