"""Shared checks.

While the matmul, elementwise, n-factor, one-sided, pair-solve,
pair-sampler, draw-stream and attack oracle tests and the matrix-facts,
marginal and wire tests run, every matrix the library builds is recorded: through
`Matrix.__post_init__` (the walk) and through `matrix._built` (facts the
caller knows).  After each test every one of them must hold canonical
entries (builtin ints, Fractions with denominator > 1 and the semiring's
infinity), and the facts stored on it, `has_inf`, `all_int` and `den`,
must equal what a fresh walk over its entries finds, with `all_int` equal
to `not has_inf and den == 1`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest

from tropmarg import matrix
from tropmarg.semiring import add_neutral

FACT_CHECKED = {
    "test_matmul_oracle",
    "test_elementwise_oracle",
    "test_nfactor_oracle",
    "test_matrix_facts",
    "test_one_sided_oracle",
    "test_pair_solve_oracle",
    "test_pair_sampler_oracle",
    "test_draw_stream",
    "test_attack_oracle",
    "test_marginal",
    "test_wire",
}


def fresh_facts(m) -> tuple:
    """(has_inf, all_int, den) as a walk over m's entries finds them."""
    o = add_neutral(m.kind)
    entries = [x for row in m.rows for x in row]
    return (
        any(x is o for x in entries),
        all(type(x) is int for x in entries),
        math.lcm(*(x.denominator for x in entries if isinstance(x, Fraction))),
    )


def stored_facts(m) -> tuple:
    return m.has_inf, m.all_int, m.den


def sound(m) -> bool:
    """Canonical entries and stored facts that a fresh walk confirms."""
    o = add_neutral(m.kind)
    return (
        all(
            type(x) is int or x is o or isinstance(x, Fraction) and x.denominator > 1
            for row in m.rows
            for x in row
        )
        and stored_facts(m) == fresh_facts(m)
        and m.all_int == (not m.has_inf and m.den == 1)
    )


@pytest.fixture(autouse=True)
def _recorded_facts_are_exact(request, monkeypatch):
    if request.path.stem not in FACT_CHECKED:
        yield
        return
    built = []
    post_init = matrix.Matrix.__post_init__
    original = matrix._built

    def walked(self):
        post_init(self)
        built.append(self)

    def known(*args, **kwargs):
        m = original(*args, **kwargs)
        built.append(m)
        return m

    monkeypatch.setattr(matrix.Matrix, "__post_init__", walked)
    for name, module in list(sys.modules.items()):
        if name.startswith("tropmarg"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, known)
    yield
    monkeypatch.undo()
    wrong = [m for m in built if not sound(m)]
    if wrong:
        m = wrong[0]
        pytest.fail(
            f"{len(wrong)} of {len(built)} matrices hold non-canonical entries or "
            f"stale facts, e.g. {m.rows!r}: stored {stored_facts(m)}, walk {fresh_facts(m)}"
        )
