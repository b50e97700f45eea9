"""The two-slot samplers and the pair solve against their earlier forms.

The references below are the earlier `_sample_pairs`, `_solve_pair` and
`_check_pair_point` of `tropmarg.marginal`, kept verbatim: every bound is
drawn with `rng.randint`, and the solve forms Y and X entry by entry and
builds them through the walk.  The samplers under test draw the same bounds
through `marginal._randbelow` and solve on the product kernel's shape, so
they must return the same pairs (compared by `repr`, which tells 3 from
Fraction(3, 1)) and leave the generator in the same state.  Cases run over
both semirings, the sandwich and five-factor words, k = 1-6, int and
`Fraction`-valued Jones constants, and l1 == l2.

This module is in `FACT_CHECKED`, so the facts of every matrix the solve
builds without the walk are checked against a fresh one.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import sub
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg.families import deform, sample_jones
from tropmarg.marginal import (
    BoundTable,
    MarginalSet,
    WordTemplate,
    _sample_set,
    chain_word,
    five_factor_residual,
    sample_five_factor_marginal,
    sample_sandwich_marginal,
    sandwich_word,
    two_sided_residual,
)
from pair_reference import min_plus_maps
from tropmarg.matrix import Matrix, dual, make_matrix, mat_mul
from tropmarg.semiring import SelfCheckError, SemiringKind, as_scalar, require_int

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS

# ---------------------------------------------------------------------------
# References (verbatim).


def ref_solve_pair(
    table: BoundTable, r: list[list], s: list[list]
) -> Optional[tuple[Matrix, Matrix, Matrix, Matrix]]:
    k = table.product.dim
    e, b = table.outer.rows, table.chain[1].rows
    px = sorted(table.px)
    partners = {p: [rr for pp, rr in table.zero_pairs if pp == p] for p in px}
    y = {rr: s[rr][rr] for rr in table.py}
    for _ in range(len(px) + 1):
        x = {p: -max(y[rr] for rr in partners[p]) for p in px}
        settled = {
            rr: max(s[rr][rr], *(e[p][rr] - b[p][rr] - x[p] for p in px)) for rr in y
        }
        if settled == y:
            break
        y = settled
    else:
        return None
    if any(x[p] < r[p][p] for p in px):
        return None
    ys = Matrix(
        SemiringKind.MIN_PLUS,
        tuple(
            tuple(
                as_scalar(max(column))
                for column in zip(s[i], *([v - b[p][i] - x[p] for v in e[p]] for p in px))
            )
            for i in range(k)
        ),
    )
    by = mat_mul(table.chain[1], ys)
    xs = Matrix(
        SemiringKind.MIN_PLUS,
        tuple(
            tuple(
                as_scalar(x[p]) if p == q and p in x else
                as_scalar(max(r[p][q], max(map(sub, e[p], by.rows[q]))))
                for q in range(k)
            )
            for p in range(k)
        ),
    )
    xby = mat_mul(xs, by)
    ref_check_pair_point(table, r, s, xs, ys, xby)
    return xs, ys, by, xby


def ref_check_pair_point(table: BoundTable, r, s, xs: Matrix, ys: Matrix, xby: Matrix) -> None:
    x, y = xs.rows, ys.rows
    if (
        any(v < w for row, bound in zip(xby.rows, table.outer.rows) for v, w in zip(row, bound))
        or any(x[p][p] + y[rr][rr] != 0 for p, rr in table.zero_pairs)
        or any(v < w for row, low in zip(x, r) for v, w in zip(row, low))
        or any(v < w for row, low in zip(y, s) for v, w in zip(row, low))
    ):
        raise SelfCheckError("pair solve produced an invalid point")


def ref_sample_pairs(
    word: WordTemplate, residual, n: int, l1: int, l2: int, rng: random.Random
) -> MarginalSet:
    require_int("l1", l1)
    require_int("l2", l2)
    if l1 > l2:
        raise ValueError("empty bound range")
    flip, _ = min_plus_maps(word.kind)
    table = residual(*(flip(m) for m in word.constants))
    k = table.product.dim
    px, py = table.px, table.py
    first, _, last = table.chain

    def draw():
        h = rng.randint(l1, l2)
        r = [[0] * k for _ in range(k)]
        s = [[0] * k for _ in range(k)]
        for i, j in itertools.product(range(k), repeat=2):
            r[i][j] = h if i == j and i in px else rng.randint(l1, l2)
            s[i][j] = -h if i == j and i in py else rng.randint(l1, l2)
        solved = ref_solve_pair(table, r, s)
        if solved is None:
            return None
        xs, ys, by, xby = solved
        value = xby if first is None else mat_mul(mat_mul(mat_mul(first, xs), by), last)
        if value != table.product:
            raise SelfCheckError("sampled pair changes the word's value")
        return xs, ys

    return _sample_set(word, n, draw, flip)


def ref_sandwich(a, n, l1, l2, rng):
    return ref_sample_pairs(sandwich_word(a), two_sided_residual, n, l1, l2, rng)


def ref_five_factor(a, b, c, n, l1, l2, rng):
    return ref_sample_pairs(chain_word((a, b, c)), five_factor_residual, n, l1, l2, rng)


SAMPLERS = {
    "sandwich": (1, sample_sandwich_marginal, ref_sandwich),
    "five-factor": (3, sample_five_factor_marginal, ref_five_factor),
}

# ---------------------------------------------------------------------------
# Cases


def anchor(kind, k, rng: random.Random, jones: bool) -> Matrix:
    """A finite constant: free ints, or a Jones matrix deformed by a rational
    alpha (Fraction entries unless alpha is 1), its dual over min-plus."""
    if jones:
        den = rng.randint(1, 12)
        m = deform(sample_jones(k, -9, 9, rng), Fraction(rng.randint(0, den), den))
        return m if kind is MAX else dual(m)
    return make_matrix(kind, [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])


def outcome(sampler, constants, n, l1, l2, seed):
    rng = random.Random(seed)
    s = sampler(*constants, n, l1, l2, rng)
    return repr(s.word), [repr([(x.kind, x.rows) for x in t]) for t in s.tuples], rng.getstate()


def assert_same_draws(shape, constants, n, l1, l2, seed):
    _, sampler, reference = SAMPLERS[shape]
    got = outcome(sampler, constants, n, l1, l2, seed)
    assert got == outcome(reference, constants, n, l1, l2, seed)
    return got


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("shape", ["sandwich", "five-factor"])
@pytest.mark.parametrize("kind", [MIN, MAX])
@pytest.mark.parametrize("jones", [False, True])
def test_samplers_match_the_reference(k, shape, kind, jones):
    rng = random.Random(f"pair-sampler/{k}/{shape}/{kind}/{jones}")
    arity = SAMPLERS[shape][0]
    for l1, l2 in ((-20, 20), (3, 3), (-5, -5), (0, 1)):
        constants = [anchor(kind, k, rng, jones) for _ in range(arity)]
        _, tuples, _ = assert_same_draws(shape, constants, 3, l1, l2, rng.getrandbits(32))
        assert tuples


@st.composite
def sampler_cases(draw):
    shape = draw(st.sampled_from(sorted(SAMPLERS)))
    kind = draw(st.sampled_from([MIN, MAX]))
    k = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    jones = draw(st.booleans())
    constants = [anchor(kind, k, rng, jones) for _ in range(SAMPLERS[shape][0])]
    l1 = draw(st.integers(-30, 30))
    l2 = l1 + draw(st.sampled_from([0, 0, 1, 2, 7, 40, 300]))
    return shape, constants, draw(st.integers(1, 4)), l1, l2, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sampler_cases())
def test_hypothesis_samplers_match_the_reference(case):
    assert_same_draws(*case)
