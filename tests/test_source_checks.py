"""Checks on the library's source tree.

Every correctness check in `src/` raises a real exception, so that it still
runs under `python -O`, which strips `assert` statements.  And no module
of the library imports the general difference-constraint solver,
`tropmarg.constraints`, which only the tests use as a reference.  The
samplers in `marginal.py` reach the random generator only through one
helper, and every int contract goes through one helper,
`semiring.require_int`.  Only `selfcheck._agree` returns a failing row,
and no sampler draw in `marginal.py` can return None.  The package's
`__init__.py` imports nothing, so each name has one import path, and
`cli.py` builds `CliError` only for exit-1 records, which only its `main`
writes.  In `marginal.py` only the boundary function reads `dual`,
`_scaled` or `_unscaled`, and nothing names `make_matrix`, `floor` or
`Fraction`.  `protocols._run` reads its params' script in one `if`, and
no function in `protocols.py` takes a `replay` argument.  Only
`marginal.py` names `_verified_set`, so every set proof lives there, and
`mat_add`, `scalar_mul`, `linear_combination` and `dual` test no value
against the infinity by identity, which the ordered arithmetic covers.
Only `wire.to_canonical_bytes` calls `json.dumps`.  `marginal.py` keeps no
copy of the int product kernel, which lives in `matrix.py`, and takes
`max(map(sub, ...))` only in its residuation kernel and the chain walk.
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


# No library module imports the general difference-constraint solver: the
# pair solve is checked against it in the tests (tests/pair_reference.py),
# and the self-check compares the pair solve with the recorded pairs.
SOLVER = "tropmarg.constraints"
SOLVER_IMPORTERS: set[str] = set()


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


def test_no_library_module_imports_the_general_solver():
    importers = {
        path.relative_to(SRC / "tropmarg").as_posix()
        for path in (SRC / "tropmarg").rglob("*.py")
        if SOLVER in imported_modules(path.read_text(encoding="utf-8"))
    }
    assert importers <= SOLVER_IMPORTERS


def test_the_package_cli_and_self_check_never_load_the_solver():
    """What a CLI run loads, and every self-check row, under python -O."""
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys, tropmarg, tropmarg.cli; from tropmarg import selfcheck; "
        "rows = selfcheck.run_all(); "
        f"sys.exit(0 if rows and all(ok for _, ok, _ in rows) and {SOLVER!r} not in sys.modules else 1)"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# Fractions and max-plus reach marginal.py at one boundary, _into_min_plus:
# only it reads dual, _scaled or _unscaled, and the module names neither
# make_matrix, floor nor Fraction, since every matrix inside holds ints.
BOUNDARY = "_into_min_plus"
CROSSING = {"dual", "_scaled", "_unscaled"}
PER_SITE = {"make_matrix", "floor", "Fraction"}


def name_uses(source: str, names: set[str]) -> list[tuple[str, str]]:
    """(where, name) for each import of, read of or attribute called one of
    `names`: where is "import" for an import, else the enclosing top-level
    function or class, or "<module>"."""
    found = []
    for top in ast.parse(source).body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.alias):
                where, name = "import", node.name.rpartition(".")[2]
            elif isinstance(node, ast.Name):
                where, name = scope, node.id
            elif isinstance(node, ast.Attribute):
                where, name = scope, node.attr
            else:
                continue
            if name in names:
                found.append((where, name))
    return found


def test_the_boundary_check_finds_each_form():
    source = (
        "from .matrix import dual, make_matrix as mm\n"
        "import fractions, math.floor\n"
        "flip = dual\n"
        "def _into_min_plus(m):\n    return dual(m)\n"
        "def f(m):\n    return fractions.Fraction(1, 2), _scaled(m, 2, None)\n"
        "class C:\n    def g(self):\n        from math import floor\n        return floor(self.x)\n"
    )
    assert sorted(name_uses(source, CROSSING | PER_SITE)) == [
        ("<module>", "dual"),
        ("C", "floor"),
        ("_into_min_plus", "dual"),
        ("f", "Fraction"),
        ("f", "_scaled"),
        ("import", "dual"),
        ("import", "floor"),
        ("import", "floor"),
        ("import", "make_matrix"),
    ]
    assert name_uses(
        'dual_rows = 1\ndef f(m):\n    """a Fraction"""\n    return m.dual_kind, "floor"\n',
        CROSSING | PER_SITE,
    ) == []


def test_only_the_boundary_crosses_into_min_plus_ints():
    source = (SRC / "tropmarg" / "marginal.py").read_text(encoding="utf-8")
    assert set(name_uses(source, CROSSING)) == {
        (where, name) for where in ("import", BOUNDARY) for name in CROSSING
    }
    assert name_uses(source, PER_SITE) == []


# The samplers reach the random generator only through marginal._randbelow,
# whose draws are pinned to randrange's stream (tests/test_draw_stream.py):
# no randint or randrange call is left in marginal.py, and getrandbits is
# read only inside the helper.
DRAWS = {"randint", "randrange"}


def generator_reads(source: str) -> list[tuple[str, str]]:
    """(enclosing top-level function or "<module>", attribute) for each call
    of a draw method and each read of getrandbits in a module's source."""
    found = []
    for top in ast.parse(source).body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in DRAWS:
                    found.append((scope, node.func.attr))
            if isinstance(node, ast.Attribute) and node.attr == "getrandbits":
                found.append((scope, "getrandbits"))
    return found


def test_the_draw_check_finds_each_form():
    source = (
        "def f(rng):\n    return rng.randint(0, 3)\n"
        "def g(rng):\n    return [rng.randrange(c) for c in (1, 2)]\n"
        "class C:\n    def h(self, rng):\n        bits = rng.getrandbits\n"
    )
    assert generator_reads(source) == [
        ("f", "randint"),
        ("g", "randrange"),
        ("C", "getrandbits"),
    ]
    assert generator_reads("randint = 1\nrandrange = randint\n") == []


def test_marginal_draws_only_through_the_helper():
    source = (SRC / "tropmarg" / "marginal.py").read_text(encoding="utf-8")
    assert generator_reads(source) == [("_randbelow", "getrandbits")]


# Every int contract goes through semiring.require_int: no other module
# raises its TypeError text or keeps an int check of its own, such as
# matrix.py's `if e < 0: raise ValueError("negative power")` once was.
INT_HELPER_HOME = "semiring.py"
ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _hand_bound_check(node) -> bool:
    """`if name <op> int: ... raise ...`: a bound tested by hand."""
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ORDER)
        and isinstance(test.left, ast.Name)
        and isinstance(test.comparators[0], ast.Constant)
        and type(test.comparators[0].value) is int
        and any(isinstance(s, ast.Raise) for s in node.body)
    )


def int_contract_breaches(source: str) -> list[str]:
    """Int-check helpers (`_require_int*`, `_is_int`) a module defines, each
    `raise TypeError(...)` whose message says "must be an int", and each
    `if` that tests a name against an int bound and raises."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and _hand_bound_check(node):
            found.append(f"bound at line {node.lineno}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_require_int") or node.name == "_is_int":
                found.append(f"def {node.name}")
        elif (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "TypeError"
            and any(
                isinstance(part, ast.Constant)
                and isinstance(part.value, str)
                and "must be an int" in part.value
                for arg in node.exc.args
                for part in ast.walk(arg)
            )
        ):
            found.append(f"raise at line {node.lineno}")
    return found


def test_the_int_contract_check_finds_each_form():
    source = (
        "def _require_int(name, v):\n    pass\n"
        "def _require_ints(spec, *names):\n    pass\n"
        "def _is_int(v):\n    return type(v) is int\n"
        "def f(v):\n    raise TypeError(f'{v} must be an int, not bool')\n"
        "def g():\n    raise TypeError('dim must be an int')\n"
        "def powers(a, e):\n    if e < 0:\n        raise ValueError('negative power')\n"
    )
    assert int_contract_breaches(source) == [
        "def _require_int", "def _require_ints", "def _is_int",
        "raise at line 8", "raise at line 10", "bound at line 12",
    ]
    assert int_contract_breaches(
        "def require_int(v):\n    raise ValueError('x must be an int')\n"
        "def h():\n    raise TypeError('not an exact scalar')\n"
        "def m(rows):\n    if len(rows) == 0:\n        raise ValueError('empty matrix')\n"
        "def k(n):\n    if n < 1:\n        return None\n"
    ) == []


def test_matrix_keeps_no_int_check_of_its_own():
    source = (SRC / "tropmarg" / "matrix.py").read_text(encoding="utf-8")
    assert int_contract_breaches(source) == []
    # the exponent and size checks call the helper instead
    calls = [
        node.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert calls.count("require_int") == 4


def test_only_the_scalar_layer_holds_the_int_check():
    found = {
        path.name: int_contract_breaches(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "tropmarg").rglob("*.py"))
    }
    assert len(found.pop(INT_HELPER_HOME)) == 1  # require_int's own raise
    assert {name: hits for name, hits in found.items() if hits} == {}


# One failure path per job: in selfcheck.py only the comparison helper
# _agree returns a failing row, (False, detail); every check hands it
# (label, recomputed, recorded) rows.  In marginal.py every sampler's draw()
# returns a tuple: none returns None, ends with a bare `return`, or falls
# off its end, since _sample_set takes every draw as a tuple.
def _own_nodes(func):
    """The nodes of a function's body, not descending into nested defs."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _functions(source: str, name=None):
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (name is None or node.name == name)
    ]


def false_row_returns(source: str) -> list[str]:
    """Each function that returns a tuple whose first item is the constant
    False, by name."""
    return [
        func.name
        for func in _functions(source)
        if any(
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Tuple)
            and node.value.elts
            and isinstance(node.value.elts[0], ast.Constant)
            and node.value.elts[0].value is False
            for node in _own_nodes(func)
        )
    ]


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def none_draws(source: str) -> list[int]:
    """Line of each `return`, `return None` or fall-off end in a function
    named draw."""
    found = []
    for func in _functions(source, "draw"):
        found += [
            node.lineno
            for node in _own_nodes(func)
            if isinstance(node, ast.Return)
            and (node.value is None or _is_none(node.value))
        ]
        if not isinstance(func.body[-1], (ast.Return, ast.Raise)):
            found.append(func.body[-1].lineno)
    return sorted(found)


def test_the_failure_row_check_finds_each_form():
    source = (
        "def _agree(ok, *rows):\n    return False, 'x'\n"
        "def f():\n    if g():\n        return False, 'bad'\n    return True, 'ok'\n"
        "def h():\n    def inner():\n        return (False,)\n    return inner\n"
    )
    assert false_row_returns(source) == ["_agree", "f", "inner"]
    assert false_row_returns(
        "def f():\n    return ('x', False)\ndef g():\n    return False\n"
        "def k():\n    ok, detail = False, 'x'\n    return ok, detail\n"
    ) == []


def test_only_agree_returns_a_failing_row():
    source = (SRC / "tropmarg" / "selfcheck.py").read_text(encoding="utf-8")
    assert false_row_returns(source) == ["_agree"]


def test_the_draw_check_finds_each_failed_draw():
    source = (
        "def s():\n    def draw():\n        if x:\n            return None\n        return (1,)\n"
        "def t():\n    def draw():\n        if x:\n            return\n        return (1,)\n"
        "def u():\n    def draw():\n        y = 1\n"
    )
    assert none_draws(source) == [4, 9, 13]
    assert none_draws(
        "def s():\n    def draw():\n        def f():\n            return None\n"
        "        if x:\n            raise E()\n        return (1,)\n"
        "def g():\n    return None\n"
    ) == []


def test_every_sampler_draw_gives_a_tuple():
    source = (SRC / "tropmarg" / "marginal.py").read_text(encoding="utf-8")
    assert _functions(source, "draw"), "no draw found, so the check below would pass vacuously"
    assert none_draws(source) == []


# One import path per name: the package's __init__ imports nothing, so a
# name is reached only through the module that defines it, and `import
# tropmarg` loads no submodule.
def import_lines(source: str) -> list[int]:
    """Line of each import statement in a module's source, nested ones too."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_the_import_line_check_finds_each_form():
    source = (
        '"""Doc."""\nfrom .matrix import mat_mul\nimport os\n'
        "def f():\n    from . import wire\n"
    )
    assert import_lines(source) == [2, 3, 5]
    assert import_lines('"""from .matrix import mat_mul"""\nimported = 1\n') == []


def test_the_package_module_imports_nothing():
    source = (SRC / "tropmarg" / "__init__.py").read_text(encoding="utf-8")
    assert import_lines(source) == []


def test_importing_the_package_loads_no_submodule():
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, tropmarg; print(sorted(m for m in sys.modules if m.startswith('tropmarg.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# One error path in the CLI: main maps ValueError and WireFormatError to the
# exit-2 records, so cli.py builds CliError only for the exit-1 records that
# no exception type gives (verification-failed under --word, keys-disagree,
# no-decomposition and attack-missed), and only main writes a record.
def cli_error_codes(source: str) -> list:
    """The code of each CliError(...) call, first argument or code=: its
    value when it is a constant, else the source text of the expression."""
    return [
        arg.value if isinstance(arg, ast.Constant) else ast.unparse(arg)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "CliError"
        for arg in [*node.args[:1], *(k.value for k in node.keywords if k.arg == "code")]
    ]


def test_the_cli_error_check_finds_each_form():
    source = (
        "raise CliError(2, 'bad-arguments', 'x')\n"
        "def f(code):\n    raise CliError(\n        1, 'keys-disagree', 'y'\n    )\n"
        "e = CliError(code, 'r', 'z')\ng = CliError(reason='r', detail='d', code=2)\n"
    )
    assert sorted(cli_error_codes(source), key=str) == [1, 2, 2, "code"]
    assert cli_error_codes("raise ValueError(2)\nclass CliError(Exception):\n    pass\n") == []


def test_the_cli_builds_cli_error_only_for_exit_1():
    source = (SRC / "tropmarg" / "cli.py").read_text(encoding="utf-8")
    assert cli_error_codes(source) == [1, 1, 1]


def error_record_callers(source: str) -> list:
    """For each call of _error_record, the name of the top-level function or
    class that holds it (None at module level)."""
    return [
        getattr(node, "name", None)
        for node in ast.parse(source).body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_error_record"
    ]


def test_the_error_record_check_finds_each_caller():
    source = (
        "def main():\n    _error_record(2, 'a', 'b')\n"
        "def g():\n    if x:\n        return _error_record(1, 'c', 'd')\n"
        "_error_record(3, 'e', 'f')\n"
        "def _error_record(code, reason, detail):\n    pass\n"
    )
    assert error_record_callers(source) == ["main", "g", None]


def test_only_main_writes_error_records():
    source = (SRC / "tropmarg" / "cli.py").read_text(encoding="utf-8")
    callers = error_record_callers(source)
    assert callers and set(callers) == {"main"}


# One run path: protocols._run reads params.script in one statement, the
# `if` that takes the inputs from the draw or from the script, and no
# function takes a `replay` argument, so nothing after that `if` can branch
# on whether the run is scripted.
def script_statements(source: str, name: str = "_run") -> list[str]:
    """For each statement of the body of function `name` that reads a name
    or attribute called script, nested defs included: "if <test>" for an
    `if`, else "<statement type> at line <n>"."""
    found = []
    for func in _functions(source, name):
        for stmt in func.body:
            if any(
                (isinstance(node, ast.Name) and node.id == "script")
                or (isinstance(node, ast.Attribute) and node.attr == "script")
                for node in ast.walk(stmt)
            ):
                found.append(
                    f"if {ast.unparse(stmt.test)}"
                    if isinstance(stmt, ast.If)
                    else f"{type(stmt).__name__} at line {stmt.lineno}"
                )
    return found


def replay_arguments(source: str) -> list[str]:
    """The name of each function ("<lambda>" for a lambda) that takes an
    argument named replay."""
    return [
        getattr(node, "name", "<lambda>")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and any(
            a.arg == "replay"
            for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        )
    ]


def test_the_script_check_finds_each_form():
    source = (
        "def _run(params):\n"
        "    n, script = 1, params.script\n"
        "    if params.script is None:\n        x = 1\n"
        "    def f():\n        return script\n"
        "    return [s for s in params.script.bodies]\n"
        "def g(params):\n    return params.script\n"
    )
    assert script_statements(source) == [
        "Assign at line 2",
        "if params.script is None",
        "FunctionDef at line 5",
        "Return at line 7",
    ]
    assert script_statements("def _run(params):\n    return params.scripted\n") == []
    source = (
        "def f(own, replay):\n    pass\n"
        "def g(a, *, replay=None):\n    pass\n"
        "h = lambda replay: 1\n"
        "def k(replays, own):\n    replay = own\n"
    )
    assert replay_arguments(source) == ["f", "g", "<lambda>"]


def test_a_run_reads_its_script_in_one_branch():
    source = (SRC / "tropmarg" / "protocols.py").read_text(encoding="utf-8")
    assert script_statements(source) == ["if params.script is None"]
    assert replay_arguments(source) == []


# Set proofs only in marginal.py: every set built without the constructor's
# per-tuple check goes through marginal._verified_set, and only marginal.py
# names it (the wire decoder reaches the box proof through box_marginal_set).
PROOF_BUILDER = {"_verified_set"}


def test_the_proof_builder_check_finds_each_form():
    source = (
        "from .marginal import _verified_set as trusted\n"
        "def f(word, tuples):\n    return marginal._verified_set(word, tuples)\n"
        "build = _verified_set\n"
    )
    assert name_uses(source, PROOF_BUILDER) == [
        ("import", "_verified_set"),
        ("f", "_verified_set"),
        ("<module>", "_verified_set"),
    ]
    assert name_uses('def f():\n    """built by _verified_set"""\n', PROOF_BUILDER) == []


def test_only_marginal_builds_a_set_without_checking_it():
    namers = {
        path.name
        for path in (SRC / "tropmarg").rglob("*.py")
        if name_uses(path.read_text(encoding="utf-8"), PROOF_BUILDER)
    }
    assert namers == {"marginal.py"}


# One canonical encoder: only wire.to_canonical_bytes calls json.dumps, so
# every JSON byte the library writes is sorted, compact and ASCII, and an
# object JSON cannot hold is refused there as WireFormatError.
JSON_ENCODERS = {"dumps", "dump", "JSONEncoder"}


def test_the_encoder_check_finds_each_form():
    source = (
        "import json\n"
        "def f(obj):\n    return json.dumps(obj)\n"
        "from json import dump as write\n"
        "class C:\n    encoder = json.JSONEncoder\n"
    )
    assert name_uses(source, JSON_ENCODERS) == [
        ("f", "dumps"),
        ("import", "dump"),
        ("C", "JSONEncoder"),
    ]
    assert name_uses(
        'def f(b):\n    """json.dumps"""\n    return json.loads(b), "dumps"\n', JSON_ENCODERS
    ) == []


def test_only_the_canonical_encoder_writes_json():
    found = {
        path.name: name_uses(path.read_text(encoding="utf-8"), JSON_ENCODERS)
        for path in sorted((SRC / "tropmarg").rglob("*.py"))
    }
    assert {name: uses for name, uses in found.items() if uses} == {
        "wire.py": [("to_canonical_bytes", "dumps")]
    }


# Only matrix.py and marginal.py build a Matrix without the walk: every
# other module, the wire decoder included, gets its matrices through the
# Matrix constructor or from those two.
FACT_BUILDER = {"_built"}


def test_the_fact_builder_check_finds_each_form():
    source = (
        "from .matrix import _built as trusted\n"
        "def f(kind, rows):\n    return matrix._built(kind, rows)\n"
        "class C:\n    make = _built\n"
    )
    assert name_uses(source, FACT_BUILDER) == [("import", "_built"), ("f", "_built"), ("C", "_built")]
    assert name_uses('def f():\n    """not through _built"""\n', FACT_BUILDER) == []


def test_only_matrix_and_marginal_skip_the_walk():
    namers = {
        path.name
        for path in (SRC / "tropmarg").rglob("*.py")
        if name_uses(path.read_text(encoding="utf-8"), FACT_BUILDER)
    }
    assert namers == {"matrix.py", "marginal.py"}


# The infinities order and add like numbers, so the elementwise ops need no
# identity test of the infinity: mat_add picks, scalar_mul and
# linear_combination add, dual negates.  Only mat_mul (whose filtered path
# skips infinite terms, faster than adding them) and the scaling helpers
# still test by identity.
ORDERED = ("mat_add", "scalar_mul", "linear_combination", "dual")
INFINITIES = {"o", "POS_INF", "NEG_INF"}


def _infinite(node) -> bool:
    """A name or attribute called o, POS_INF or NEG_INF, or an
    add_neutral(...) call."""
    if isinstance(node, ast.Call):
        node = node.func
        return getattr(node, "id", getattr(node, "attr", None)) == "add_neutral"
    return getattr(node, "id", getattr(node, "attr", None)) in INFINITIES


def infinity_identity_tests(source: str, name: str) -> list[int]:
    """Line of each `is`, `is not`, `==` or `!=` comparison with an
    infinity in function `name` (equality of the infinities is identity)."""
    return sorted(
        node.lineno
        for func in _functions(source, name)
        for node in ast.walk(func)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops)
        and any(map(_infinite, [node.left, *node.comparators]))
    )


def test_the_infinity_identity_check_finds_each_form():
    source = (
        "def f(row, c, k):\n"
        "    o = add_neutral(k)\n"
        "    if c is POS_INF or c is semiring.NEG_INF:\n        return c\n"
        "    a = [x for x in row if x is not o]\n"
        "    b = tuple(o if x == o else x for x in row)\n"
        "    return [x is add_neutral(k) for x in a], k is SemiringKind.MIN_PLUS\n"
    )
    assert infinity_identity_tests(source, "f") == [3, 3, 5, 6, 7]
    assert infinity_identity_tests(
        "def f(row, k):\n    o = add_neutral(k)\n"
        "    return [min(x, o) for x in row], k is SemiringKind.MAX_PLUS, o < 1\n",
        "f",
    ) == []


def test_the_elementwise_ops_leave_the_infinity_to_the_arithmetic():
    source = (SRC / "tropmarg" / "matrix.py").read_text(encoding="utf-8")
    assert {name: infinity_identity_tests(source, name) for name in ORDERED} == {
        name: [] for name in ORDERED
    }
    # the check sees the identity tests that remain
    assert infinity_identity_tests(source, "mat_mul")
    assert infinity_identity_tests(source, "_scaled")


# One kernel each: the int product kernel, min or max over map(add, ...),
# lives in matrix.py, which marginal.py calls for its products; and in
# marginal.py max(map(sub, ...)) is taken by the residuation kernel _outer
# and by _repair_chain alone, whose walk lifts one entry at a time between
# its suffix updates.
KERNEL_OPS = {"add", "sub"}
RESIDUATORS = {("_outer", "max"), ("_repair_chain", "max")}


def kernel_forms(source: str) -> list[tuple[str, str, str]]:
    """(enclosing top-level function or class, or "<module>"; min or max;
    add or sub) for each min or max call whose first argument is a map over
    add or sub, by name or as an attribute (operator.add)."""
    found = []
    for top in ast.parse(source).body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("min", "max")
                and node.args
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.id == "map"
                and node.args[0].args
            ):
                continue
            op = node.args[0].args[0]
            op = getattr(op, "id", getattr(op, "attr", None))
            if op in KERNEL_OPS:
                found.append((scope, node.func.id, op))
    return found


def test_the_product_kernel_check_finds_each_form():
    source = (
        "def _min_plus(a, cols):\n    return [[min(map(add, r, c)) for c in cols] for r in a]\n"
        "class C:\n    def f(self, r, c):\n        return max(map(operator.add, r, c), default=0)\n"
        "top = min(map(add, (1,), (2,)))\n"
    )
    assert kernel_forms(source) == [
        ("_min_plus", "min", "add"),
        ("C", "max", "add"),
        ("<module>", "min", "add"),
    ]
    assert kernel_forms(
        "def f(row, offsets, cols):\n"
        "    x = tuple(map(add, row, offsets))\n"
        "    y = [pick(map(add, row, c)) for c in cols]\n"
        "    return sum(map(add, row, x)), min(map(abs, row)), max(1, 2), y\n"
    ) == []


def test_marginal_keeps_no_product_kernel():
    source = (SRC / "tropmarg" / "marginal.py").read_text(encoding="utf-8")
    assert [form for form in kernel_forms(source) if form[2] == "add"] == []


def test_the_residual_kernel_check_finds_each_form():
    source = (
        "def _outer(d, last):\n    return [[max(map(sub, r, c)) for c in last] for r in d]\n"
        "def _solve_pair(e, by):\n"
        "    def row(e_row):\n        return [max(map(operator.sub, e_row, b)) for b in by]\n"
        "    return [min(map(sub, r, b)) for r, b in zip(e, by)]\n"
    )
    assert kernel_forms(source) == [
        ("_outer", "max", "sub"),
        ("_solve_pair", "min", "sub"),
        ("_solve_pair", "max", "sub"),
    ]
    assert kernel_forms("def f(r, c):\n    return max(0, r - c), list(map(sub, r, c))\n") == []


def test_marginal_residuates_only_in_the_kernel_and_the_walk():
    source = (SRC / "tropmarg" / "marginal.py").read_text(encoding="utf-8")
    found = {(scope, pick) for scope, pick, op in kernel_forms(source) if op == "sub"}
    assert found == RESIDUATORS
