"""The two-slot pair solve against the general difference-constraint solver.

The reference builds the full k⁴-row system with `_pair_system`, solves it
with `constraints.solve_feasible_min` and reads the pair back with
`_assignment_to_pair`.  `_solve_pair` must return a pair with the same
`repr` (which pins the scalar types: 3 and Fraction(3, 1) are equal but
print differently), and None exactly when the reference is `Infeasible`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropmarg.fixtures as fx
from tropmarg.constraints import Infeasible, solve_feasible_min
from tropmarg.marginal import (
    BoundTable,
    _solve_pair,
    five_factor_residual,
    two_sided_residual,
)
from tropmarg.matrix import make_matrix
from pair_reference import _assignment_to_pair, _pair_system
from tropmarg.semiring import SemiringKind

MIN = SemiringKind.MIN_PLUS


def reference(table, r, s):
    solved = solve_feasible_min(_pair_system(table, r, s))
    if isinstance(solved, Infeasible):
        return None
    return _assignment_to_pair(solved, table.product.dim)


def assert_agrees(table, r, s):
    want = reference(table, r, s)
    solved = _solve_pair(table, r, s)
    got = None if solved is None else solved[:2]
    assert repr(got) == repr(want)
    return got


def _matrix(k, rng, fractions=False):
    def value():
        if fractions:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 3))
        return rng.randint(-20, 20)

    return make_matrix(MIN, [[value() for _ in range(k)] for _ in range(k)])


def _table(shape, k, rng, fractions=False):
    if shape == "sandwich":
        return two_sided_residual(_matrix(k, rng, fractions))
    return five_factor_residual(*(_matrix(k, rng, fractions) for _ in range(3)))


def _bounds(table, rng, pinned, l1=-20, l2=20):
    """Lower bounds as the two-slot sampler draws them when pinned: the
    diagonals of the zero-pair rows at h and -h, the rest free."""
    k = table.product.dim
    h = rng.randint(l1, l2)
    r = [[rng.randint(l1, l2) for _ in range(k)] for _ in range(k)]
    s = [[rng.randint(l1, l2) for _ in range(k)] for _ in range(k)]
    if pinned:
        for i in range(k):
            if i in table.px:
                r[i][i] = h
            if i in table.py:
                s[i][i] = -h
    return r, s


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("shape", ["sandwich", "five-factor"])
@pytest.mark.parametrize("pinned", [True, False])
def test_pair_solve_agrees(k, shape, pinned):
    rng = random.Random(f"pair-oracle/{k}/{shape}/{pinned}")
    verdicts = []
    for _ in range(12 if k < 5 else 6):
        table = _table(shape, k, rng)
        verdicts.append(assert_agrees(table, *_bounds(table, rng, pinned)))
    if pinned:
        # the pinned draws the sampler makes are always feasible
        assert None not in verdicts
    elif k > 1:
        assert None in verdicts


@pytest.mark.parametrize("k", [2, 3, 4])
def test_fraction_pair_solve_agrees(k):
    rng = random.Random(f"pair-oracle-fractions/{k}")
    for shape, pinned in itertools.product(["sandwich", "five-factor"], [True, False]):
        for _ in range(4):
            table = _table(shape, k, rng, fractions=True)
            assert_agrees(table, *_bounds(table, rng, pinned))


# Hypothesis cases: Fraction constants and lower bounds, the samplers' own
# tables and free tables whose E and B agree at drawn positions.
# The free tables have zero-pair graphs the samplers' tables seldom have
# (long chains, more zero pairs on one side than the other), which is where
# the number of Bellman-Ford rounds matters.

scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3)),
)


def _rows(draw, k):
    return [[draw(scalars) for _ in range(k)] for _ in range(k)]


@st.composite
def pair_systems(draw):
    k = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["sandwich", "five-factor", "free"]))
    if shape == "sandwich":
        table = two_sided_residual(make_matrix(MIN, _rows(draw, k)))
    elif shape == "five-factor":
        table = five_factor_residual(*(make_matrix(MIN, _rows(draw, k)) for _ in range(3)))
    else:
        e, b = _rows(draw, k), _rows(draw, k)
        for p, rr in itertools.product(range(k), repeat=2):
            if draw(st.integers(0, 2)) == 0:
                b[p][rr] = e[p][rr]
        e, b = make_matrix(MIN, e), make_matrix(MIN, b)
        table = BoundTable(e, e, (None, b, None))
    r, s = _rows(draw, k), _rows(draw, k)
    if draw(st.booleans()):
        h = draw(scalars)
        for i in range(k):
            if i in table.px:
                r[i][i] = h
            if i in table.py:
                s[i][i] = -h
    return table, r, s


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair_systems())
def test_hypothesis_pair_systems_agree(case):
    assert_agrees(*case)


def test_chain_needing_every_round():
    # zero pairs (0, 0), (0, 1): x00 settles from y11 and then lifts y00,
    # which takes |px| + 1 = 2 rounds
    e = make_matrix(MIN, [[0, 0], [5, 5]])
    b = make_matrix(MIN, [[0, 0], [9, 9]])
    table = BoundTable(e, e, (None, b, None))
    assert table.zero_pairs == frozenset({(0, 0), (0, 1)})
    x, y = assert_agrees(table, [[-9, 0], [0, 0]], [[0, 0], [0, 4]])
    assert x.rows[0][0] == -4 and y.rows[0][0] == 4 and y.rows[1][1] == 4



@pytest.mark.parametrize("shape", ["sandwich", "five-factor"])
def test_the_recorded_pairs_solve_the_recorded_bounds(shape):
    # the cross-solve of the worked instances: `tropmarg selftest` checks
    # the pair solve against the recorded pairs, this checks the recorded
    # pairs against the general solver on the full system
    if shape == "sandwich":
        table = two_sided_residual(fx.BIL_A)
        bounds, pair = (fx.BIL_R, fx.BIL_S), (fx.BIL_X, fx.BIL_Y)
    else:
        table = five_factor_residual(fx.FF_A, fx.FF_B, fx.FF_C)
        bounds, pair = (fx.FF_R, fx.FF_S), (fx.FF_X, fx.FF_Y)
    r, s = ([list(row) for row in m.rows] for m in bounds)
    assert reference(table, r, s) == pair
    assert assert_agrees(table, r, s) == pair
