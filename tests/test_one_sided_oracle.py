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

This module is in `FACT_CHECKED`, so the facts of every draw built without
the walk are checked against a fresh one.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import floor

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
    _crossing,
    _verified_set,
    diagonal_pairs,
    left_word,
    max_possible_matrix,
    residual_left,
    residual_right,
    right_word,
    sample_left_marginal,
    sample_right_marginal,
)
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
    flip, flip_cap = _crossing(a.kind)
    m = flip(a)
    star = (residual_right(m) if side == "right" else residual_left(m)).x_star
    outer = max_possible_matrix(diagonal_pairs(a.dim), star, flip_cap(as_scalar(l)))
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
    flip, _ = _crossing(a.kind)
    m = flip(a)
    star = (residual_right(m) if side == "right" else residual_left(m)).x_star
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
        _, flip_cap = _crossing(kind)
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
        star = (residual_right(a) if side == "right" else residual_left(a)).x_star
        assert s.tuples == ((star,),)
        assert rng.getstate() == before
        # the reference checks the same tuple once more per retry
        with monkeypatch.context() as patch:
            patch.setitem(globals(), "mat_mul", counted)
            calls.clear()
            assert ref_sample_one_sided(a, 4, 150, rng, side).tuples == s.tuples
        assert len(calls) == 1 + RETRY_BUDGET
        assert rng.getstate() == before
