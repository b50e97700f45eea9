"""The two-slot pair solve against the general difference-constraint solver.

The reference builds the full k⁴-row system with `_pair_system`, solves it
with `constraints.solve_feasible_min` and reads the pair back with
`_assignment_to_pair`.  The bounds are pinned as the samplers pin them, and
the tables are those the samplers build, so the reference always finds a
point; `_solve_pair` must return a pair with the same `repr` (which pins the
scalar types: 3 and Fraction(3, 1) are equal but print differently).

`_solve_pair` runs on ints only: the samplers reach it through the boundary
that scales `Fraction` constants by their common denominator.  The
`Fraction` cases do the same here: the constants, the pin and the bounds
are scaled, the int system is solved, and the pair divided by the
denominator is compared with the reference on the `Fraction` system.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropmarg.fixtures as fx
from tropmarg.constraints import Infeasible, solve_feasible_min
from tropmarg.marginal import _solve_pair, five_factor_residual, two_sided_residual
from tropmarg.matrix import make_matrix
from pair_reference import _assignment_to_pair, _pair_system
from tropmarg.semiring import SemiringKind

MIN = SemiringKind.MIN_PLUS


def reference(table, r, s):
    solved = solve_feasible_min(_pair_system(table, r, s))
    assert not isinstance(solved, Infeasible)
    return _assignment_to_pair(solved, table.product.dim)


def assert_agrees(table, h, r, s):
    want = reference(table, r, s)
    got = _solve_pair(table, h, r, s)[:2]
    assert repr(got) == repr(want)
    return got


def assert_agrees_scaled(residual, mats, h, r, s):
    """The case at the boundary: solve the system scaled by the common
    denominator d of the constants, h and the bounds, divide the pair by d,
    and compare it with the reference on the unscaled system."""
    d = lcm(
        *(m.den for m in mats),
        *(Fraction(v).denominator for v in (h, *itertools.chain(*r, *s))),
    )

    def scaled(rows):
        return [[int(v * d) for v in row] for row in rows]

    table = residual(*(make_matrix(MIN, scaled(m.rows)) for m in mats))
    got = _solve_pair(table, int(h * d), scaled(r), scaled(s))[:2]
    got = tuple(make_matrix(MIN, [[Fraction(v, d) for v in row] for row in m.rows]) for m in got)
    assert repr(got) == repr(reference(residual(*mats), r, s))


def _pin(table, h, r, s):
    """Pin the diagonals of the zero-pair rows at h and -h, as the two-slot
    sampler does."""
    for i in table.px:
        r[i][i] = h
    for i in table.py:
        s[i][i] = -h
    return h, r, s


def _matrix(k, rng, fractions=False):
    def value():
        if fractions:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 3))
        return rng.randint(-20, 20)

    return make_matrix(MIN, [[value() for _ in range(k)] for _ in range(k)])


def _constants(shape, k, rng, fractions=False):
    """(residual, constants) of a sandwich or five-factor table."""
    if shape == "sandwich":
        return two_sided_residual, [_matrix(k, rng, fractions)]
    return five_factor_residual, [_matrix(k, rng, fractions) for _ in range(3)]


def _table(shape, k, rng, fractions=False):
    residual, mats = _constants(shape, k, rng, fractions)
    return residual(*mats)


def _bounds(table, rng, l1=-20, l2=20):
    """Lower bounds as the two-slot sampler draws them: the diagonals of the
    zero-pair rows at h and -h, the rest free."""
    k = table.product.dim
    h = rng.randint(l1, l2)
    r = [[rng.randint(l1, l2) for _ in range(k)] for _ in range(k)]
    s = [[rng.randint(l1, l2) for _ in range(k)] for _ in range(k)]
    return _pin(table, h, r, s)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("shape", ["sandwich", "five-factor"])
def test_pair_solve_agrees(k, shape):
    rng = random.Random(f"pair-oracle/{k}/{shape}")
    for _ in range(12 if k < 5 else 6):
        table = _table(shape, k, rng)
        assert_agrees(table, *_bounds(table, rng))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_fraction_pair_solve_agrees(k):
    rng = random.Random(f"pair-oracle-fractions/{k}")
    for shape in ["sandwich", "five-factor"]:
        for _ in range(8):
            residual, mats = _constants(shape, k, rng, fractions=True)
            assert_agrees_scaled(residual, mats, *_bounds(residual(*mats), rng))


# Hypothesis cases: Fraction constants, pin values and lower bounds on the
# samplers' own tables, solved at the boundary.

scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3)),
)


def _rows(draw, k):
    return [[draw(scalars) for _ in range(k)] for _ in range(k)]


@st.composite
def pair_systems(draw):
    k = draw(st.integers(1, 4))
    if draw(st.sampled_from(["sandwich", "five-factor"])) == "sandwich":
        residual, mats = two_sided_residual, [make_matrix(MIN, _rows(draw, k))]
    else:
        residual = five_factor_residual
        mats = [make_matrix(MIN, _rows(draw, k)) for _ in range(3)]
    table = residual(*mats)
    return residual, mats, *_pin(table, draw(scalars), _rows(draw, k), _rows(draw, k))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair_systems())
def test_hypothesis_pair_systems_agree(case):
    assert_agrees_scaled(*case)


@pytest.mark.parametrize("shape", ["sandwich", "five-factor"])
def test_the_recorded_pairs_solve_the_recorded_bounds(shape):
    # the cross-solve of the worked instances: `tropmarg selftest` checks
    # the pair solve against the recorded pairs, this checks the recorded
    # pairs against the general solver on the full system
    if shape == "sandwich":
        table = two_sided_residual(fx.BIL_A)
        h, bounds, pair = 3, (fx.BIL_R, fx.BIL_S), (fx.BIL_X, fx.BIL_Y)
    else:
        table = five_factor_residual(fx.FF_A, fx.FF_B, fx.FF_C)
        h, bounds, pair = -10, (fx.FF_R, fx.FF_S), (fx.FF_X, fx.FF_Y)
    r, s = ([list(row) for row in m.rows] for m in bounds)
    # the recorded bounds are pinned at h
    assert _pin(table, h, *([list(row) for row in m.rows] for m in bounds)) == (h, r, s)
    assert reference(table, r, s) == pair
    assert assert_agrees(table, h, r, s) == pair
