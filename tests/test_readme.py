"""README's quick tour is code that runs against the package as it is."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick tour", "exec"), {})
