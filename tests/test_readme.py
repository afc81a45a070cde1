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


def test_readme_names_only_classes_that_exist():
    # Every backticked CamelCase name, or the class a dotted name starts with.
    names = set(re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+)", README.read_text()))
    modules = [qdreplay] + [importlib.import_module(f"qdreplay.{info.name}")
                            for info in pkgutil.iter_modules(qdreplay.__path__)
                            if not info.name.startswith("_")]
    assert names
    missing = sorted(name for name in names if not any(hasattr(m, name) for m in modules))
    assert not missing, f"README names classes no qdreplay module defines: {missing}"
