"""Checks on the library's source tree.

Every correctness check in `src/` raises a real exception, so that it still
runs under `python -O`, which strips `assert` statements.  And only the
self-check and the package's re-exports import the general
difference-constraint solver, `tropmarg.constraints`.
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


# No runtime path calls the general difference-constraint solver: only the
# self-check, which cross-solves the recorded worked instances, and the
# package's re-exports import it.
SOLVER = "tropmarg.constraints"
SOLVER_IMPORTERS = {"__init__.py", "selfcheck.py"}


def imported_modules(source: str, package: str = "tropmarg") -> set[str]:
    """Absolute names a module of `package` imports; `from X import y`
    counts as importing both X and X.y, since y may be a submodule."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_the_import_check_resolves_each_import_form():
    for source in (
        "from .constraints import solve_feasible_min\n",
        "from . import constraints\n",
        "import tropmarg.constraints as c\n",
        "from tropmarg import constraints\n",
        "def f():\n    from .constraints import VarId\n",
    ):
        assert SOLVER in imported_modules(source), source
    assert SOLVER not in imported_modules("from .marginal import constraints_of\n")


def test_only_the_self_check_imports_the_general_solver():
    importers = {
        path.relative_to(SRC / "tropmarg").as_posix()
        for path in (SRC / "tropmarg").rglob("*.py")
        if SOLVER in imported_modules(path.read_text(encoding="utf-8"))
    }
    assert importers <= SOLVER_IMPORTERS
