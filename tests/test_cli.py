from __future__ import annotations

import errno
import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

import qdreplay
from qdreplay.bench import (LoopConfig, RandomPolicy, ScriptedDemonstrator, StageChainEnv,
                            mean_and_ci, rollout)
from qdreplay.cli import KNOWN_KEYS, build_parser, build_settings, main, parse_config_file
from qdreplay.windows import Episode, EpisodeArrays, ReplayBuffer, save_jsonl


@pytest.fixture()
def buffer_file(tmp_path):
    buf = ReplayBuffer(capacity=10_000, gamma=1.0)
    rng = np.random.default_rng(0)
    for eid in range(8):
        length = int(rng.integers(8, 14))
        steps = [(rng.standard_normal(4), int(rng.integers(4)), float(rng.integers(0, 2)),
                  int(rng.integers(3))) for _ in range(length)]
        states, actions, rewards, stages = (np.array(column) for column in zip(*steps))
        buf.append_episode(Episode(id=eid, transitions=EpisodeArrays(
            states, actions, rewards, stages, np.arange(length) == length - 1)))
    path = tmp_path / "buffer.jsonl"
    save_jsonl(buf, path)
    return path


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_select_writes_expected_selection(tmp_path, buffer_file):
    cfg = write_config(tmp_path, "horizon = 5\npool_size = 20\nsubset_size = 5\n")
    out = tmp_path / "out"
    code = main(["select", str(buffer_file), "--config", str(cfg),
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "selection.json").read_text())
    assert len(payload["indices"]) == 5
    assert len(payload["windows"]) == 5
    assert "config_hash" in payload and payload["seed"] == 3
    assert payload["logdet"] == pytest.approx(sum(payload["gains"]), abs=1e-9)
    # Pinned picks: a refactor that moves them changes the command's output.
    assert payload["indices"] == [3, 13, 2, 5, 11]
    assert payload["windows"] == [{"episode": 3, "start": 0}, {"episode": 7, "start": 1},
                                  {"episode": 3, "start": 2}, {"episode": 3, "start": 6},
                                  {"episode": 4, "start": 4}]


def test_select_rerun_is_byte_identical(tmp_path, buffer_file):
    cfg = write_config(tmp_path, "horizon = 5\nsubset_size = 4\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["select", str(buffer_file), "--config", str(cfg), "--seed", "9",
                 "--out", str(out_a), "--kernel-dump"]) == 0
    assert main(["select", str(buffer_file), "--config", str(cfg), "--seed", "9",
                 "--out", str(out_b), "--kernel-dump"]) == 0
    assert (out_a / "selection.json").read_bytes() == (out_b / "selection.json").read_bytes()
    assert (out_a / "kernel.csv").read_bytes() == (out_b / "kernel.csv").read_bytes()


def test_select_kernel_dump_shape(tmp_path, buffer_file):
    cfg = write_config(tmp_path, "horizon = 5\npool_size = 6\nsubset_size = 2\n")
    out = tmp_path / "out"
    assert main(["select", str(buffer_file), "--config", str(cfg),
                 "--out", str(out), "--kernel-dump"]) == 0
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    n, lam = lines[1].split(",")
    assert int(n) == 6
    assert float(lam) >= 0
    assert len(lines) == 2 + int(n)


def test_select_without_valid_windows_exits_3(tmp_path):
    buf = ReplayBuffer(capacity=100, gamma=1.0)
    buf.append_episode(Episode(id=0, transitions=EpisodeArrays(
        np.zeros((1, 2)), np.zeros(1, dtype=np.int64), np.zeros(1), np.zeros(1, dtype=np.int64),
        np.ones(1, dtype=bool))))
    path = tmp_path / "short.jsonl"
    save_jsonl(buf, path)
    cfg = write_config(tmp_path, "horizon = 5\n")
    out = tmp_path / "out"
    assert main(["select", str(path), "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_select_on_empty_buffer_file_exits_3(tmp_path, capsys, text):
    path = tmp_path / "empty.jsonl"
    path.write_text(text)
    assert main(["select", str(path), "--out", str(tmp_path)]) == 3
    assert "no valid windows" in capsys.readouterr().err


def test_select_on_a_directory_exits_2_before_any_output(tmp_path, capsys):
    dump = tmp_path / "adir"
    dump.mkdir()
    out = tmp_path / "out"
    assert main(["select", str(dump), "--out", str(out)]) == 2
    assert f"cannot read buffer file {dump}" in capsys.readouterr().err
    assert not out.exists()


def test_select_on_a_missing_dump_exits_2_naming_it_before_any_output(tmp_path, capsys):
    dump = tmp_path / "missing.jsonl"
    out = tmp_path / "out"
    assert main(["select", str(dump), "--out", str(out)]) == 2
    assert str(dump) in capsys.readouterr().err
    assert not out.exists()


def test_select_on_a_pipe_exits_2_naming_it_before_any_output(tmp_path, capsys):
    """A pipe could be read only once, and opening one blocks, so it is never opened."""
    dump = tmp_path / "pipe.jsonl"
    os.mkfifo(dump)
    out = tmp_path / "out"
    assert main(["select", str(dump), "--out", str(out)]) == 2
    assert f"cannot read buffer file {dump}: {dump} is not a regular file" in \
        capsys.readouterr().err
    assert not out.exists()


def test_select_writes_the_same_bytes_when_workers_cannot_be_forked(tmp_path, buffer_file,
                                                                     monkeypatch):
    """A failed fork leaves the rows to the parent: it is no error reading the dump."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(qdreplay.windows, "_RANGE_MIN", 20)
    args = ["select", str(buffer_file), "--seed", "3"]
    assert main([*args, "--out", str(tmp_path / "forked")]) == 0

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert main([*args, "--out", str(tmp_path / "alone")]) == 0
    assert (tmp_path / "alone" / "selection.json").read_bytes() == \
        (tmp_path / "forked" / "selection.json").read_bytes()


def test_select_frees_the_dump_before_selecting(tmp_path, buffer_file, monkeypatch):
    """Only the candidate pool outlives the pool draw, not the loaded buffer."""
    cli = qdreplay.cli
    load_jsonl, select_windows = cli.load_jsonl, cli.select_windows
    loaded = []

    def load_and_watch(*args, **kwargs):
        buffer = load_jsonl(*args, **kwargs)
        loaded.append(weakref.ref(buffer))
        return buffer

    def select_after_free(*args, **kwargs):
        gc.collect()
        assert loaded and loaded[0]() is None
        return select_windows(*args, **kwargs)

    monkeypatch.setattr(cli, "load_jsonl", load_and_watch)
    monkeypatch.setattr(cli, "select_windows", select_after_free)
    cfg = write_config(tmp_path, "horizon = 5\n")
    assert main(["select", str(buffer_file), "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0


def test_malformed_buffer_exits_2_with_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"episode": 0, "t": 0, "state": [0.0], "action": 0, "reward": 0.0}\n{broken\n')
    assert main(["select", str(path), "--out", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("line, reason", [
    ("[" * 100_000, "maximum recursion depth exceeded"),
    ('{"episode": 0, "t": 1, "state": [0.0], "action": 1, "reward": ' + "9" * 5000 + "}",
     "Exceeds the limit (4300 digits)"),
], ids=["too-deep", "too-many-digits"])
def test_too_deep_or_too_long_json_exits_2_with_line_before_output(tmp_path, capsys, line,
                                                                    reason):
    path = tmp_path / "deep.jsonl"
    path.write_text('{"episode": 0, "t": 0, "state": [0.0], "action": 1, "reward": 0.0}\n'
                    + line + "\n")
    out = tmp_path / "out"
    assert main(["select", str(path), "--out", str(out)]) == 2
    assert f"line 2: invalid JSON ({reason}" in capsys.readouterr().err
    assert not out.exists()


def test_mixed_action_kinds_exit_2_with_line(tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    path.write_text(
        '{"episode": 0, "t": 0, "state": [0.0], "action": 1, "reward": 0.0}\n'
        '{"episode": 0, "t": 1, "state": [0.0], "action": [0.5], "reward": 0.0}\n'
    )
    assert main(["select", str(path), "--out", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_wrongly_typed_scalar_exits_2_with_line_before_output(tmp_path, capsys):
    path = tmp_path / "typed.jsonl"
    path.write_text(
        '{"episode": 0, "t": 0, "state": [0.0], "action": 1, "reward": 0.0}\n'
        '{"episode": 0, "t": 1, "state": [0.0], "action": 1, "reward": 0.0, "done": "false"}\n'
    )
    out = tmp_path / "out"
    assert main(["select", str(path), "--out", str(out)]) == 2
    assert "line 2: done must be a JSON bool" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["state", "action", "reward", "episode", "t"])
def test_missing_key_exits_2_naming_line_and_key_before_output(tmp_path, capsys, key):
    record = {"episode": 0, "t": 1, "state": [0.0], "action": 1, "reward": 0.0}
    del record[key]
    path = tmp_path / "missing.jsonl"
    path.write_text('{"episode": 0, "t": 0, "state": [0.0], "action": 1, "reward": 0.0}\n'
                    + json.dumps(record) + "\n")
    out = tmp_path / "out"
    assert main(["select", str(path), "--out", str(out)]) == 2
    assert f"line 2: missing key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_state_exits_2_with_line_before_output(tmp_path, capsys):
    path = tmp_path / "nan.jsonl"
    path.write_text(
        '{"episode": 0, "t": 0, "state": [0.0], "action": 1, "reward": 0.0}\n'
        '{"episode": 0, "t": 1, "state": [NaN], "action": 1, "reward": 0.0}\n'
    )
    out = tmp_path / "out"
    assert main(["select", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "state must be finite" in err
    assert not out.exists()


def test_non_utf8_dump_exits_2_naming_file_and_line_before_output(tmp_path, capsys):
    path = tmp_path / "latin.jsonl"
    path.write_bytes(
        b'{"episode": 0, "t": 0, "state": [0.0], "action": 1, "reward": 0.0}\n'
        b'{"episode": 0, "t": 1, "state": [0.0], "action": 1, "reward": 0.0, "x": "\xff"}\n'
    )
    out = tmp_path / "out"
    assert main(["select", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 2: byte 0xff at column 74 is not utf-8 text" in err and str(path) in err
    assert not out.exists()


def test_non_utf8_config_exits_2_naming_file_and_line_before_output(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"horizon = 5\n# caf\xe9\n")
    out = tmp_path / "out"
    assert main(["loop", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:2: byte 0xe9 at column 6 is not utf-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_config_lines_are_numbered_as_the_file_breaks_them(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"horizon = 5\x0c\r\npool_size = 40\rnot_a_key = 5\n")
    assert main(["loop", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{cfg}:3: unknown config key 'not_a_key'" in capsys.readouterr().err


def test_unknown_config_key_exits_2_naming_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "not_a_key = 5\n")
    assert main(["loop", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "not_a_key" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "eta = nope\n")
    assert main(["loop", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "eta" in capsys.readouterr().err


def _config_text(config: LoopConfig) -> str:
    """Every LoopConfig field as a config line holding the field's value."""
    lines = []
    for f in fields(LoopConfig):
        value = getattr(config, f.name)
        if value is None:
            text = "median"
        elif isinstance(value, tuple):
            text = ",".join(map(str, value))
        elif isinstance(value, Enum):
            text = value.name
        else:
            text = repr(value)
        lines.append(f"{f.name} = {text}\n")
    return "".join(lines)


def test_every_loop_config_field_is_a_config_key(tmp_path):
    assert {f.name for f in fields(LoopConfig)} <= KNOWN_KEYS
    expected = LoopConfig(horizon=7, lam=0.5, sigma=2.5, slip=0.2, steps_per_stage=(3, 3, 3, 2))
    cfg = write_config(tmp_path, _config_text(expected))
    args = build_parser().parse_args(["loop", "--config", str(cfg), "--out", str(tmp_path)])
    assert build_settings(parse_config_file(cfg), args).loop == expected


_NUMBER_KEYS = [f.name for f in fields(LoopConfig) if type(f.default) in (int, float)]
_INT_KEYS = [f.name for f in fields(LoopConfig) if type(f.default) is int]


@pytest.mark.parametrize("line", [f"{key} = 1.5x" for key in _NUMBER_KEYS]
                         + [f"{key} = 1.5" for key in _INT_KEYS])
def test_unparseable_number_exits_2_naming_key(tmp_path, capsys, line):
    cfg = write_config(tmp_path, line + "\n")
    assert main(["loop", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert repr(line.split(" = ")[0]) in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "lam = -0.1", "lam = inf", "sigma = 0", "sigma = inf", "slip = 1.0",
    "steps_per_stage = 12,12", "gamma = 2", "t_max = 0",
    "learning_rate = -1", "learning_rate = nan", "learning_rate = inf", "dropout_rate = 1.0",
    "dropout_rate = -0.1", "demo_epsilon = 2", "demo_epsilon = -0.5", "feature_dim = 0",
    "capacity = 0", "smoothing_alpha = -1", "smoothing_alpha = nan", "rtg_target = nan",
    "rtg_target = -inf", "warmup_episodes = -1", "pretrain_steps = -1", "horizon = 61",
    "alpha = nan", "beta = nan", "zeta = nan"])
def test_bad_value_exits_2_before_any_output(tmp_path, capsys, line):
    cfg = write_config(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main(["loop", "--config", str(cfg), "--out", str(out)]) == 2
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, bad", [
    (["loop", "--seed", "-1"], -1),
    (["select", "BUFFER", "--seed", "-3"], -3),
    (["ablate", "--seed", "1", "--seed", "-2"], -2),
    (["loop", "--config", "CONFIG"], -5),
], ids=["loop", "select", "ablate", "seeds key"])
def test_negative_seed_exits_2_before_any_output(tmp_path, capsys, buffer_file, args, bad):
    cfg = write_config(tmp_path, "seeds = 4,-5\n")
    paths = {"BUFFER": str(buffer_file), "CONFIG": str(cfg)}
    out = tmp_path / "out"
    assert main([paths.get(arg, arg) for arg in args] + ["--out", str(out)]) == 2
    assert f"seed {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, seeds", [
    (["loop", "--seed", "1", "--seed", "2"], "1, 2"),
    (["select", "BUFFER", "--seed", "1", "--seed", "2"], "1, 2"),
    (["loop", "--config", "CONFIG"], "3, 4"),
    (["select", "BUFFER", "--config", "CONFIG"], "3, 4"),
], ids=["loop", "select", "loop seeds key", "select seeds key"])
def test_loop_and_select_exit_2_on_two_seeds_before_any_output(tmp_path, capsys, buffer_file,
                                                                args, seeds):
    cfg = write_config(tmp_path, "seeds = 3,4\n")
    paths = {"BUFFER": str(buffer_file), "CONFIG": str(cfg)}
    out = tmp_path / "out"
    assert main([paths.get(arg, arg) for arg in args] + ["--out", str(out)]) == 2
    assert f"{args[0]} runs one seed, got seeds {seeds}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["loop", "--variant", "UNIFORM"], ["ablate", "--seed", "1",
                                                                     "--seed", "2"]])
def test_horizon_beyond_t_max_exits_2_before_any_output(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "horizon = 9\nt_max = 8\n")
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
    assert "horizon (9) must be <= t_max (8)" in capsys.readouterr().err
    assert not out.exists()


def test_select_takes_a_horizon_beyond_t_max(tmp_path, buffer_file):
    """select's episodes come from the dump, whose longest episode holds 9 steps."""
    cfg = write_config(tmp_path, "horizon = 9\nt_max = 8\n")
    assert main(["select", str(buffer_file), "--config", str(cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", [["loop"], ["ablate", "--seed", "1", "--seed", "2"]])
def test_capacity_below_t_max_exits_2_before_any_output(tmp_path, capsys, command):
    """An episode runs to t_max steps, and the buffer must hold a whole one."""
    cfg = write_config(tmp_path, "capacity = 30\n")
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
    assert "capacity (30) must be >= t_max (60)" in capsys.readouterr().err
    assert not out.exists()


def test_select_takes_a_capacity_below_t_max(tmp_path, buffer_file):
    """select reads its dump whole and never stores an episode in a bounded buffer."""
    cfg = write_config(tmp_path, "capacity = 1\nhorizon = 5\n")
    assert main(["select", str(buffer_file), "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_config_key_given_twice_exits_2_naming_both_lines(tmp_path, capsys):
    cfg = write_config(tmp_path, "eta = 0.5\n# a comment\nhorizon = 6\neta = 0.6\n")
    out = tmp_path / "out"
    assert main(["loop", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'eta' given twice (lines 1 and 4)" in err and f"{cfg}:4" in err
    assert not out.exists()


def test_select_rejects_bad_value_before_reading_buffer(tmp_path, capsys):
    cfg = write_config(tmp_path, "lam = -1\n")
    path = tmp_path / "bad.jsonl"
    path.write_text("{broken\n")
    assert main(["select", str(path), "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "lam" in err and "line" not in err


TINY_LOOP = (
    "horizon = 5\npool_size = 10\nsubset_size = 2\nrefresh_period = 4\n"
    "batch_size = 8\nepisodes = 4\nwarmup_episodes = 6\npretrain_steps = 10\n"
    "updates_per_episode = 2\neval_every = 2\neval_episodes = 4\n"
    "num_stages = 3\nsteps_per_stage = 4,4,2\naction_count = 4\nt_max = 20\n"
)


def test_loop_writes_metrics_and_audit(tmp_path):
    cfg = write_config(tmp_path, TINY_LOOP)
    out = tmp_path / "out"
    assert main(["loop", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "variant,seed,step,success,diversity,redundancy,episodes,sampled_success"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2  # episodes=4, eval_every=2
    assert all(row[0] == "FULL" and row[1] == "5" for row in rows)
    audit = [json.loads(line) for line in (out / "audit.jsonl").read_text().splitlines()]
    assert "config_hash" in audit[0]
    assert all(e["step"] % 4 == 0 for e in audit[1:])
    assert len(audit) > 1


@pytest.mark.parametrize("variant", ["FULL", "QUALITY_ONLY", "DIVERSITY_ONLY", "UNIFORM"])
def test_loop_at_a_pool_of_one_window(tmp_path, variant):
    """One window has no pairwise distance; its bandwidth falls back to 1."""
    one = TINY_LOOP.replace("pool_size = 10\nsubset_size = 2", "pool_size = 1\nsubset_size = 1")
    cfg = write_config(tmp_path, one)
    out = tmp_path / "out"
    assert main(["loop", "--config", str(cfg), "--variant", variant, "--out", str(out)]) == 0
    assert len((out / "metrics.csv").read_text().splitlines()) == 2 + 2
    events = [json.loads(line) for line in (out / "audit.jsonl").read_text().splitlines()[1:]]
    assert (not events) if variant == "UNIFORM" else all(len(e["Y"]) == 1 for e in events)


def test_select_on_a_dump_of_one_window(tmp_path):
    buf = ReplayBuffer(capacity=100, gamma=1.0)
    states = np.random.default_rng(0).standard_normal((5, 4))
    buf.append_episode(Episode(id=0, transitions=EpisodeArrays(
        states, np.zeros(5, dtype=int), np.zeros(5), np.zeros(5, dtype=int),
        np.arange(5) == 4)))
    save_jsonl(buf, tmp_path / "one.jsonl")
    cfg = write_config(tmp_path, "horizon = 5\n")
    out = tmp_path / "out"
    assert main(["select", str(tmp_path / "one.jsonl"), "--config", str(cfg), "--out", str(out),
                 "--kernel-dump"]) == 0
    payload = json.loads((out / "selection.json").read_text())
    assert payload["indices"] == [0] and payload["windows"] == [{"episode": 0, "start": 0}]
    assert len((out / "kernel.csv").read_text().splitlines()) == 3  # comment, header, one row


def test_loop_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, TINY_LOOP)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["loop", "--config", str(cfg), "--seed", "11"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "audit.jsonl").read_bytes() == (out_b / "audit.jsonl").read_bytes()


def test_uniform_loop_audit_has_no_selection_events(tmp_path):
    cfg = write_config(tmp_path, TINY_LOOP)
    out = tmp_path / "out"
    assert main(["loop", "--config", str(cfg), "--variant", "UNIFORM", "--out", str(out)]) == 0
    audit = (out / "audit.jsonl").read_text().splitlines()
    assert len(audit) == 1  # provenance header only


def test_unknown_variant_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_LOOP)
    assert main(["loop", "--config", str(cfg), "--variant", "BOGUS", "--out", str(tmp_path)]) == 2
    assert "BOGUS" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["select", "ablate"])
def test_variant_flag_is_loop_only(tmp_path, buffer_file, command):
    args = [command, "--variant", "FULL", "--seed", "1", "--seed", "2", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(args + ([str(buffer_file)] if command == "select" else []))
    assert exc.value.code == 2


@pytest.mark.parametrize("variant", ["QUALITY_ONLY", "DIVERSITY_ONLY", "UNIFORM"])
def test_select_rejects_non_full_variant_before_reading_buffer(tmp_path, capsys, variant):
    cfg = write_config(tmp_path, f"variant = {variant}\n")
    path = tmp_path / "bad.jsonl"
    path.write_text("{broken\n")
    out = tmp_path / "out"
    assert main(["select", str(path), "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert variant in err and "line" not in err
    assert not out.exists()


def test_select_accepts_variant_full_key(tmp_path, buffer_file):
    plain = write_config(tmp_path, "horizon = 5\n")
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text("horizon = 5\nvariant = FULL\n")
    for cfg, out in ((plain, tmp_path / "a"), (keyed, tmp_path / "b")):
        assert main(["select", str(buffer_file), "--config", str(cfg), "--out", str(out)]) == 0
    assert (tmp_path / "a" / "selection.json").read_bytes() == \
        (tmp_path / "b" / "selection.json").read_bytes()


def test_ablate_rejects_non_full_variant_before_any_output(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_LOOP + "variant = UNIFORM\n")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(cfg), "--seed", "1", "--seed", "2",
                 "--out", str(out)]) == 2
    assert "UNIFORM" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_requires_two_seeds(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_LOOP)
    assert main(["ablate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)]) == 2
    assert "2 seeds" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--seed", "3", "--seed", "3"], ["--config", "CONFIG"]],
                         ids=["flag", "seeds key"])
def test_ablate_exits_2_on_a_repeated_seed_before_any_output(tmp_path, capsys, args):
    """run_loop is deterministic per seed: a repeated seed would report a ci from one run."""
    cfg = write_config(tmp_path, "seeds = 3,4,3\n")
    out = tmp_path / "out"
    assert main(["ablate"] + [str(cfg) if arg == "CONFIG" else arg for arg in args]
                + ["--out", str(out)]) == 2
    seeds = "3, 3" if args[0] == "--seed" else "3, 4, 3"
    assert f"ablate needs distinct seeds, got seeds {seeds}" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_table_shape_and_ci(tmp_path, capsys):
    # Shorter stages, so sampled success moves between a run's two evaluations.
    cfg = write_config(tmp_path, TINY_LOOP.replace("steps_per_stage = 4,4,2",
                                                   "steps_per_stage = 2,2,1"))
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(cfg), "--seed", "1", "--seed", "2",
                 "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "variant"
    assert lines[1] == ("variant,success_mean,success_ci,redundancy_mean,redundancy_ci,"
                        "diversity_mean,diversity_ci,rare_stage_mean,rare_stage_ci,"
                        "sampled_success_mean,sampled_success_ci")
    assert capsys.readouterr().out.splitlines()[0] == (
        "variant                  success       redundancy        diversity")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    header = lines[1].split(",")
    # Each success mean and ci are those of the two runs' last-step values;
    # a variant's rows in ablation_runs.csv are its first run's, then its second's.
    runs = (out / "ablation_runs.csv").read_text().splitlines()
    run_header = runs[1].split(",")
    success = {}
    for line in runs[2:]:
        run = dict(zip(run_header, line.split(",")))
        for name in ("success", "sampled_success"):
            success.setdefault((run["variant"], name), []).append(float(run[name]))
    for row in rows:
        record = dict(zip(header, row))
        for name in ("success", "sampled_success"):
            steps = success[record["variant"], name]
            assert len(steps) % 2 == 0
            last_steps = [steps[len(steps) // 2 - 1], steps[-1]]
            assert (float(record[f"{name}_mean"]), float(record[f"{name}_ci"])) == \
                mean_and_ci(last_steps)
    assert any(steps[0] != steps[-1] for steps in success.values())


def test_ablate_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, TINY_LOOP)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["ablate", "--config", str(cfg), "--seed", "1", "--seed", "2"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "ablation.csv").read_bytes() == (out_b / "ablation.csv").read_bytes()
    assert (out_a / "ablation_runs.csv").read_bytes() == (out_b / "ablation_runs.csv").read_bytes()


CHURN_LOOP = (
    "capacity = 1500\npool_size = 400\nsubset_size = 60\nrefresh_period = 10\n"
    "episodes = 30\nwarmup_episodes = 30\npretrain_steps = 20\neval_every = 15\n"
    "eval_episodes = 10\n"
)


def test_outputs_are_byte_equal_at_one_and_two_blas_threads(tmp_path):
    """``select --kernel-dump`` at pool 600, whose first distance row blocks
    are large enough for OpenBLAS to split, and ``loop`` with 12 refreshes at
    pool 400 write the same bytes with BLAS at one thread and at two."""
    env = StageChainEnv()
    actors = [ScriptedDemonstrator(env, 0.3), RandomPolicy(env.action_count)]
    rng = np.random.default_rng(3)
    buf = ReplayBuffer(capacity=10_000, gamma=1.0)
    while buf.window_count(LoopConfig().horizon) < 1200:
        episode_id = buf.new_episode_id()
        steps, _ = rollout(env, actors[episode_id % 2], rng)
        buf.append_episode(Episode(id=episode_id, transitions=steps))
    save_jsonl(buf, tmp_path / "dump.jsonl")
    (tmp_path / "select.cfg").write_text("pool_size = 600\nsubset_size = 60\n")
    (tmp_path / "churn.cfg").write_text(CHURN_LOOP)
    src = str(Path(qdreplay.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = {
        "select": (["select", "dump.jsonl", "--kernel-dump", "--config", "select.cfg"],
                   ("selection.json", "kernel.csv")),
        "loop": (["loop", "--config", "churn.cfg"], ("metrics.csv", "audit.jsonl")),
    }
    outputs = {}
    for threads in ("1", "2"):
        for name, (args, files) in commands.items():
            out = tmp_path / f"{name}_{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "qdreplay", *args, "--seed", "1", "--out", str(out)],
                cwd=tmp_path, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads))
            assert done.returncode == 0, done.stderr
            outputs[name, threads] = [(out / file).read_bytes() for file in files]
    audit = (tmp_path / "loop_1" / "audit.jsonl").read_text().splitlines()
    assert len(audit) == 13  # the header and 12 refreshes
    for name in commands:
        assert outputs[name, "1"] == outputs[name, "2"], name
