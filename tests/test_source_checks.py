"""Checks on the library's source tree.

Every correctness check in `src/` raises a real exception, so that it still
runs under `python -O`, which strips `assert` statements.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_lines(source: str, filename: str = "<string>") -> list[int]:
    """Line numbers of the assert statements in a module's source."""
    tree = ast.parse(source, filename=filename)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_the_check_finds_asserts():
    assert assert_lines("x = 1\nif x:\n    assert x, 'msg'\n") == [3]
    assert assert_lines("raise_if = 'assert x'\n") == []


def test_src_has_no_assert_statements():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in paths
        for line in assert_lines(path.read_text(encoding="utf-8"), str(path))
    ]
    assert found == []
