"""The one-sided samplers against the retry loop they replace on a one-point box.

The references below are the earlier `_sample_set` and `_sample_one_sided`
of `tropmarg.marginal`, kept verbatim: every draw builds its matrix through
the walk, and the set asks for n tuples even when the box [X*, X̂] holds one,
so a one-point box costs RETRY_BUDGET more duplicate draws.  Those draws take
nothing from the random stream, so the sampler under test, which draws such a
box once, must return the same tuples in the same order and leave the
generator in the same state.  Cases run over both semirings, dims 1-6, int
anchors and `Fraction`-valued Jones deformations, with caps that pin the
whole box, caps that leave a few points and wide caps, and n from 1 to 6.

The sampler checks a set by one product, m⊗X* = m, and each draw by its
place in the box: above X*, with x*'s zero diagonal.  Tests below count
that one product at dims 1-8, check every published tuple against [X*, X̂],
and step a draw below X* or lift x*'s diagonal to see the checks raise.

This module is in `FACT_CHECKED`, so the facts of every draw built without
the walk are checked against a fresh one.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg import marginal
from tropmarg.families import deform, sample_jones
from tropmarg.marginal import (
    RETRY_BUDGET,
    MarginalSet,
    MarginalTuple,
    SamplerExhausted,
    WordTemplate,
    _verified_set,
    left_word,
    max_possible_matrix,
    residual_left,
    residual_right,
    right_word,
    sample_left_marginal,
    sample_right_marginal,
    verify_marginal,
)
from pair_reference import min_plus_maps
from tropmarg.matrix import Matrix, dual, make_matrix, mat_mul
from tropmarg.semiring import SelfCheckError, SemiringKind, as_scalar

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS

# ---------------------------------------------------------------------------
# References (verbatim).


def ref_sample_set(word: WordTemplate, n: int, draw, flip) -> MarginalSet:
    if n < 1:
        raise ValueError("need n >= 1 tuples")
    tuples: dict[MarginalTuple, None] = {}
    for _ in range(n):
        for _attempt in range(RETRY_BUDGET):
            t = draw()
            if t is not None and t not in tuples:
                tuples[t] = None
                break
        else:
            break
    if not tuples:
        raise SamplerExhausted("sampler retry budget exhausted")
    return _verified_set(word, tuple(tuple(flip(x) for x in t) for t in tuples))


def ref_sample_one_sided(
    a: Matrix, n: int, l, rng: random.Random, side: str
) -> MarginalSet:
    flip, flip_cap = min_plus_maps(a.kind)
    m = flip(a)
    star = residual_right(m) if side == "right" else residual_left(m)
    outer = max_possible_matrix(star, flip_cap(as_scalar(l)))
    # Each entry steps uniformly from x* toward the outer corner (inclusive):
    # floor(x̂ - x*) + 1 choices, so tightness at x* stays reachable for
    # rational bounds.  A Fraction x* plus an int step stays canonical.
    choices = [
        [(x, floor(y - x) + 1) for x, y in zip(row, outer_row)]
        for row, outer_row in zip(star.rows, outer.rows)
    ]

    def draw():
        rows = tuple(
            tuple(x + rng.randrange(c) if c > 1 else x for x, c in row) for row in choices
        )
        x = Matrix(SemiringKind.MIN_PLUS, rows)
        if (mat_mul(m, x) if side == "right" else mat_mul(x, m)) != m:
            raise SelfCheckError(f"{side} sample breaks the one-sided product")
        return (x,)

    word = right_word(a) if side == "right" else left_word(a)
    return ref_sample_set(word, n, draw, flip)


SAMPLERS = {"right": sample_right_marginal, "left": sample_left_marginal}

# ---------------------------------------------------------------------------
# Strategies


ALPHAS = st.builds(
    lambda den, num: Fraction(num % (den + 1), den), st.integers(1, 12), st.integers(0, 12)
)


@st.composite
def anchors(draw, kind, n):
    """A finite anchor: free ints, or a Jones matrix deformed by a rational
    alpha (Fraction entries unless alpha is 1), its dual over min-plus."""
    if draw(st.booleans()):
        jones = sample_jones(n, -9, 9, random.Random(draw(st.integers(0, 2**32))))
        m = deform(jones, draw(ALPHAS))
        return m if kind is MAX else dual(m)
    return make_matrix(kind, [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)])


def box_edge(a: Matrix, side: str):
    """The least off-diagonal entry of x* in min-plus coordinates (0 at
    dim 1): a min-plus cap at or below it pins the whole box."""
    flip, _ = min_plus_maps(a.kind)
    m = flip(a)
    star = residual_right(m) if side == "right" else residual_left(m)
    off = [x for i, row in enumerate(star.rows) for j, x in enumerate(row) if i != j]
    return min(off, default=0)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from([MIN, MAX]))
    n = draw(st.integers(1, 6))
    side = draw(st.sampled_from(["right", "left"]))
    a = draw(anchors(kind, n))
    shape = draw(st.sampled_from(["default", "pinned", "few", "wide"]))
    if shape == "default":
        # the CLI's default cap: over max-plus it pins the box to x*
        cap = 150
    else:
        edge = box_edge(a, side)
        offset = {
            "pinned": st.integers(-5, 0),
            "few": st.sampled_from([1, 2, Fraction(3, 2), Fraction(5, 2)]),
            "wide": st.integers(3, 30),
        }[shape]
        _, flip_cap = min_plus_maps(kind)
        cap = flip_cap(as_scalar(edge + draw(offset)))
    return a, draw(st.integers(1, 6)), cap, draw(st.integers(0, 2**32)), side


def outcome(sampler, a, n, cap, seed):
    rng = random.Random(seed)
    s = sampler(a, n, cap, rng)
    # repr of the entries, so an int and a Fraction(n, 1) differ
    return repr(s.word), [repr([(x.kind, x.rows) for x in t]) for t in s.tuples], rng.getstate()


# ---------------------------------------------------------------------------
# Tests


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_one_sided_matches_retry_loop_reference(case):
    a, n, cap, seed, side = case
    got = outcome(SAMPLERS[side], a, n, cap, seed)
    want = outcome(functools.partial(ref_sample_one_sided, side=side), a, n, cap, seed)
    assert got == want


def test_pinned_box_costs_one_product_check(monkeypatch):
    a = make_matrix(MAX, [[0, 3, -2, 5], [1, 0, 4, -1], [-3, 2, 0, 6], [2, -4, 1, 0]])
    calls, product = [], mat_mul

    def counted(x, y):
        calls.append(None)
        return product(x, y)

    for side, sampler in SAMPLERS.items():
        with monkeypatch.context() as patch:
            patch.setattr(marginal, "mat_mul", counted)
            calls.clear()
            rng = random.Random(11)
            before = rng.getstate()
            s = sampler(a, 4, 150, rng)
        assert len(calls) == 1
        star = residual_right(a) if side == "right" else residual_left(a)
        assert s.tuples == ((star,),)
        assert rng.getstate() == before
        # the reference checks the same tuple once more per retry
        with monkeypatch.context() as patch:
            patch.setitem(globals(), "mat_mul", counted)
            calls.clear()
            assert ref_sample_one_sided(a, 4, 150, rng, side).tuples == s.tuples
        assert len(calls) == 1 + RETRY_BUDGET
        assert rng.getstate() == before


# ---------------------------------------------------------------------------
# One product per set.  The sampler checks m⊗X* = m once and each draw only
# by its place in the box: above X*, with x*'s zero diagonal.  The tests
# below count the products, check every published tuple against the box
# [X*, X̂] (the cap is a sampling bound, which no product checks now), and
# step a draw below X* to see the per-draw check raise.


@st.composite
def boxes(draw):
    """A one-sided case at dims 1-8 and n 1-10: a cap that pins the box,
    leaves a few points, or leaves it wide."""
    kind = draw(st.sampled_from([MIN, MAX]))
    side = draw(st.sampled_from(["right", "left"]))
    a = draw(anchors(kind, draw(st.integers(1, 8))))
    offset = draw(st.one_of(
        st.integers(-5, 0), st.sampled_from([1, Fraction(3, 2)]), st.integers(3, 30)
    ))
    _, flip_cap = min_plus_maps(kind)
    cap = flip_cap(as_scalar(box_edge(a, side) + offset))
    return a, draw(st.integers(1, 10)), cap, draw(st.integers(0, 2**32)), side


def _counted(calls):
    def counted(x, y):
        calls.append(None)
        return mat_mul(x, y)

    return counted


@settings(max_examples=150, deadline=None, derandomize=True)
@given(boxes())
def test_each_one_sided_set_costs_one_product(case):
    a, n, cap, seed, side = case
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(marginal, "mat_mul", _counted(calls))
        SAMPLERS[side](a, n, cap, random.Random(seed))
    assert len(calls) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(boxes())
def test_every_published_tuple_lies_in_the_box(case):
    a, n, cap, seed, side = case
    flip, flip_cap = min_plus_maps(a.kind)
    m = flip(a)
    star = residual_right(m) if side == "right" else residual_left(m)
    outer = max_possible_matrix(star, flip_cap(cap))
    s = SAMPLERS[side](a, n, cap, random.Random(seed))
    k = a.dim
    for t in s.tuples:
        (x,) = (flip(v) for v in t)
        for i in range(k):
            assert star[i][i] == x[i][i] == 0
            for j in range(k):
                assert star[i][j] <= x[i][j] <= outer[i][j]
        assert verify_marginal(s.word, t)


# A wide box over both semirings: every off-diagonal entry has choices.
WIDE = make_matrix(MAX, [[0, 3, -2, 5], [1, 0, 4, -1], [-3, 2, 0, 6], [2, -4, 1, 0]])


@pytest.mark.parametrize("position", [0, -1])
@pytest.mark.parametrize("kind", [MIN, MAX])
@pytest.mark.parametrize("side", ["right", "left"])
def test_a_draw_below_x_star_raises(monkeypatch, side, kind, position):
    a = WIDE if kind is MAX else dual(WIDE)
    draws = marginal._randbelow

    def stepped_down(rng, spans):
        values = draws(rng, spans)
        values[position] = -1
        return values

    monkeypatch.setattr(marginal, "_randbelow", stepped_down)
    with pytest.raises(SelfCheckError, match="box above X"):
        SAMPLERS[side](a, 3, 40 if kind is MIN else -40, random.Random(5))


def _diagonal_raised(x: Matrix) -> Matrix:
    return Matrix(MIN, tuple(
        tuple(v + 1 if i == j else v for j, v in enumerate(row)) for i, row in enumerate(x.rows)
    ))


@pytest.mark.parametrize("kind", [MIN, MAX])
@pytest.mark.parametrize("side", ["right", "left"])
def test_a_principal_solution_off_its_zero_diagonal_raises(monkeypatch, side, kind):
    # Over an all-zero anchor, x* raised by 1 on its diagonal still gives
    # m⊗X* = m, but the box above it holds non-solutions: the diagonal
    # check, not the product, refuses it.
    a = make_matrix(kind, [[0] * 3] * 3)
    name = f"residual_{side}"
    solve = getattr(marginal, name)
    raised = _diagonal_raised(solve(dual(a) if kind is MAX else a))
    zero = make_matrix(MIN, [[0] * 3] * 3)
    assert mat_mul(zero, raised) == mat_mul(raised, zero) == zero
    monkeypatch.setattr(marginal, name, lambda m: _diagonal_raised(solve(m)))
    with pytest.raises(SelfCheckError, match="principal solution"):
        SAMPLERS[side](a, 3, 40 if kind is MIN else -40, random.Random(5))
