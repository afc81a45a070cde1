"""README's quick tour is code that runs against the package as it is."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import qdreplay

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick tour", "exec"), {})


MODULES = [qdreplay] + [importlib.import_module(f"qdreplay.{info.name}")
                        for info in pkgutil.iter_modules(qdreplay.__path__)
                        if not info.name.startswith("_")]
FILE_SUFFIXES = {"py", "csv", "json", "jsonl"}


def test_readme_names_only_classes_that_exist():
    # Every backticked CamelCase name, or the class a dotted name starts with.
    names = set(re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+)", README.read_text()))
    assert names
    missing = sorted(name for name in names if not any(hasattr(m, name) for m in MODULES))
    assert not missing, f"README names classes no qdreplay module defines: {missing}"


def test_readme_names_only_functions_and_methods_that_exist():
    # Every backticked dotted name headed by qd, a qdreplay module or a qdreplay class,
    # such as `qd.fast_greedy_map` or `JointKernel.entries`; file names such as
    # `policy.py` are skipped.
    heads = {"qd": qdreplay, "qdreplay": qdreplay}
    heads.update((module.__name__.rsplit(".", 1)[-1], module) for module in MODULES[1:])
    heads.update((name, value) for module in MODULES for name, value in vars(module).items()
                 if isinstance(value, type) and value.__module__.startswith("qdreplay."))
    names = {name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)", README.read_text())
             if name.split(".")[0] in heads and name.rsplit(".", 1)[-1] not in FILE_SUFFIXES}
    assert names

    def resolves(name):
        value = heads[name.split(".")[0]]
        for part in name.split(".")[1:]:
            if not hasattr(value, part):
                return False
            value = getattr(value, part)
        return True

    missing = sorted(name for name in names if not resolves(name))
    assert not missing, f"README names functions or methods that do not exist: {missing}"
