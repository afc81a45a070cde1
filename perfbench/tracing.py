"""Span tracing and a step probe, installed on qdreplay from outside the package.

Both work by replacing a public function or method with a wrapper at module
or class level and restoring the original afterwards; the package itself is
never edited. Spans are kept in memory as parallel lists and written out once
the traced repetition is over.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from pathlib import Path

NO_PARENT = -1


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepProbe:
    """Wall and process CPU timestamps of every completed call to one method.

    It records nothing else. Process CPU time does not advance while the host
    runs something else, so CPU intervals keep the host's pauses out of a tail.
    """

    def __init__(self, owner, attr: str):
        self.stamps: list[float] = []
        self.cpu_stamps: list[float] = []
        self._patches = _Patches()
        original = owner.__dict__[attr]
        stamps, cpu_stamps = self.stamps, self.cpu_stamps
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(original)
        def probed(*args, **kwargs):
            result = original(*args, **kwargs)
            stamps.append(clock())
            cpu_stamps.append(cpu_clock())
            return result

        self._patches.replace(owner, attr, probed)

    def remove(self) -> None:
        self._patches.restore()


class Tracer:
    """Records (name, start, end, parent) spans around wrapped calls.

    ``wrap`` replaces ``owner.attr`` (a module or a class) by a wrapper that
    opens a span named ``name`` -- or ``name(args, kwargs)`` when ``name`` is
    callable -- and calls ``after(args, kwargs, result)`` once the call
    returns. The same function imported into several modules is wrapped in
    each of them, so calls are seen whichever module makes them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.window_count: int | None = None  # length of the last valid_windows result
        self._stack = [NO_PARENT]
        self._patches = _Patches()

    def wrap(self, owner, attr: str, name, after=None) -> None:
        original = owner.__dict__[attr]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter
        fixed_name = None if callable(name) else name

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(fixed_name or name(args, kwargs))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patches.replace(owner, attr, traced)

    def remove(self) -> None:
        self._patches.restore()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; spans on one thread nest, so children never overlap.
        """
        covered = [0.0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                covered[parent] += self.ends[span] - self.starts[span]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, name in enumerate(self.names):
            duration = self.ends[span] - self.starts[span]
            entry = stats[name]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - covered[span]
        return dict(stats)

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(self.ends[i] - self.starts[i]
                   for i, parent in enumerate(self.parents) if parent == NO_PARENT)

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, parent id, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for span, name in enumerate(self.names):
                fh.write(f"{span}\t{self.parents[span]}\t{name}\t"
                         f"{self.starts[span]!r}\t{self.ends[span]!r}\n")


def install_layer_spans(tracer: Tracer, qd) -> None:
    """Wrap the public functions that mark each qdreplay layer's boundary.

    Span names are ``<module>.<function>``; ``run_loop`` spans also carry the
    variant and the CLI entry point is named ``cli.select``.
    """
    windows, geometry, scoring = qd.windows, qd.geometry, qd.scoring
    kernels, replay, bench, cli = qd.kernels, qd.replay, qd.bench, qd.cli
    buffer_cls, policy_cls = windows.ReplayBuffer, qd.policy.LinearSoftmaxPolicy

    episode_counts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def after_append(args, kwargs, result):
        buffer = args[0]
        stored = len(buffer.episodes)
        tracer.count("windows.evicted_episodes", episode_counts.get(buffer, 0) + 1 - stored)
        episode_counts[buffer] = stored

    def after_valid_windows(args, kwargs, result):
        tracer.window_count = len(result)

    def after_greedy(args, kwargs, result):
        k = kwargs["k"] if "k" in kwargs else args[1]
        if len(result.indices) < k:
            tracer.count("kernels.greedy_map.early_stops")

    def run_loop_name(args, kwargs):
        variant = kwargs["variant"] if "variant" in kwargs else args[1]
        return f"bench.run_loop.{variant.name}"

    tracer.wrap(buffer_cls, "append_episode", "windows.append_episode", after_append)
    tracer.wrap(buffer_cls, "valid_windows", "windows.valid_windows", after_valid_windows)
    tracer.wrap(buffer_cls, "materialize", "windows.materialize")
    tracer.wrap(buffer_cls, "sample_candidate_pool", "windows.sample_candidate_pool")
    tracer.wrap(policy_cls, "weighted_update", "policy.weighted_update")

    # (function, span name, modules that hold a reference to it)
    functions = [
        ("load_jsonl", "windows.load_jsonl", (windows, cli)),
        ("encode_pool", "geometry.encode_pool", (geometry, bench, cli)),
        ("median_bandwidth", "geometry.median_bandwidth", (geometry, bench, cli)),
        ("rbf_similarity", "geometry.rbf_similarity", (geometry, bench, cli)),
        ("composite_quality", "scoring.composite_quality", (scoring, bench, cli)),
        ("build_joint_kernel", "kernels.build_joint_kernel", (kernels, bench, cli)),
        ("log_det", "kernels.log_det", (kernels, bench)),
        ("mixed_sample", "replay.mixed_sample", (replay, bench)),
        ("normalize_weights", "replay.normalize_weights", (replay, bench)),
        ("rollout", "bench.rollout", (bench,)),
        ("evaluate_policy", "bench.evaluate_policy", (bench,)),
    ]
    for attr, name, modules in functions:
        for module in modules:
            tracer.wrap(module, attr, name)
    for module in (kernels, bench, cli):
        tracer.wrap(module, "greedy_map", "kernels.greedy_map", after_greedy)
    tracer.wrap(bench, "run_loop", run_loop_name)
    tracer.wrap(cli, "main", "cli.select")
