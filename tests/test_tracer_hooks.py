"""The benchmark's tracer still installs on the library.

perfbench/tracing.py hooks public functions by (module, name).  A hooked
name that is removed or renamed would break the benchmark's traced runs,
so this test imports the tracer read-only and checks that every
(module, function) of its span table resolves, that install() wraps each
of them, and that uninstall() leaves nothing wrapped.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TABLE = sorted(tracing._span_table())


@pytest.mark.parametrize("mod_name, fn_name", TABLE, ids=[f"{m}.{f}" for m, f in TABLE])
def test_hooked_name_resolves(mod_name, fn_name):
    module = importlib.import_module(f"tropmarg.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"tropmarg.{mod_name}.{fn_name} is gone"


def test_install_wraps_every_hook_and_uninstall_restores():
    modules = {m: importlib.import_module(f"tropmarg.{m}") for m, _ in TABLE}
    originals = {(m, f): getattr(modules[m], f) for m, f in TABLE}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unwrapped = [
            f"{m}.{f}"
            for m, f in TABLE
            if not getattr(getattr(modules[m], f), "_perfbench_wrapper", False)
        ]
        assert unwrapped == []
        assert tracer.leftovers() != []
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    assert all(getattr(modules[m], f) is fn for (m, f), fn in originals.items())
