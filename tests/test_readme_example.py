"""The README's "Library example" runs as written.

The Python block under that heading is extracted and executed in a fresh
namespace, so a change to a public name or a return type that the example
uses fails here instead of leaving the README stale.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1, "expected one Python block under Library example"
    return blocks[0]


def test_library_example_runs():
    source = library_example()
    assert "residual_right" in source and "sample_right_marginal" in source
    exec(compile(source, f"{README.name}: Library example", "exec"), {"__name__": "readme"})
