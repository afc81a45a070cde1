"""The benchmark's span tracer must still find every function it wraps.

``perfbench/tracing.py`` wraps qdreplay functions by name in the modules that
hold them, so a name dropped from one of those modules breaks only the traced
benchmark run. Installing the spans here catches that in the tests.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import qdreplay
import qdreplay.cli  # noqa: F401  the tracer wraps names in qdreplay.cli as well

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_install_and_remove_cleanly():
    tracing = _load_tracing()
    modules = [qdreplay.windows, qdreplay.geometry, qdreplay.scoring, qdreplay.kernels,
               qdreplay.replay, qdreplay.bench, qdreplay.cli, qdreplay.windows.ReplayBuffer,
               qdreplay.policy.LinearSoftmaxPolicy]
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    try:
        tracing.install_layer_spans(tracer, qdreplay)  # KeyError for a name a module lacks
        wrapped = qdreplay.bench.composite_quality
    finally:
        tracer.remove()
    assert wrapped.__wrapped__ is qdreplay.bench.composite_quality
    for module, names in zip(modules, before):
        assert {name: vars(module)[name] for name in names} == names
