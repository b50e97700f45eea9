"""Sampler counts and caps that feed `random` must be builtin ints.

A float, a bool or a `Fraction` in a tuple count or an integer cap is
refused with TypeError before the first draw, so the generator's state is
left as it was.  The one-sided caps stay any exact scalar; an infinite
cap beyond x* leaves the box unbounded and is refused with ValueError,
while the other infinity pins the box at x*.  A chain whose draw would
walk more than `MAX_CHAIN_PREFIXES` diagonal prefixes is refused with
ValueError before the first draw too.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tropmarg.marginal import (
    MAX_CHAIN_PREFIXES,
    residual_left,
    residual_right,
    sample_additive_marginal,
    sample_five_factor_marginal,
    sample_left_marginal,
    sample_n_factor_marginal,
    sample_right_marginal,
    sample_sandwich_marginal,
)
from tropmarg.matrix import dual, make_matrix
from tropmarg.semiring import NEG_INF, POS_INF, SemiringKind

A = make_matrix(SemiringKind.MIN_PLUS, [[0, 3, 5], [2, 0, 4], [1, 6, 0]])
B = make_matrix(SemiringKind.MIN_PLUS, [[1, 0, 2], [3, 1, 0], [0, 2, 1]])
NOT_INTS = [2.0, True, Fraction(7, 2), Fraction(2, 1)]


def refused(call, value) -> None:
    rng = random.Random(3)
    before = rng.getstate()
    with pytest.raises(TypeError, match="must be an int"):
        call(value, rng)
    assert rng.getstate() == before


@pytest.mark.parametrize("value", NOT_INTS)
def test_additive_sampler_takes_int_count_and_cap(value):
    refused(lambda v, rng: sample_additive_marginal(A, 3, v, rng), value)
    refused(lambda v, rng: sample_additive_marginal(A, v, 2, rng), value)


@pytest.mark.parametrize("value", NOT_INTS)
def test_sandwich_sampler_takes_int_count_and_caps(value):
    refused(lambda v, rng: sample_sandwich_marginal(A, 3, v, 4, rng), value)
    refused(lambda v, rng: sample_sandwich_marginal(A, 3, -3, v, rng), value)
    refused(lambda v, rng: sample_sandwich_marginal(A, v, -3, 4, rng), value)


@pytest.mark.parametrize("value", NOT_INTS)
def test_five_factor_sampler_takes_int_count_and_caps(value):
    refused(lambda v, rng: sample_five_factor_marginal(A, B, A, 3, v, 4, rng), value)
    refused(lambda v, rng: sample_five_factor_marginal(A, B, A, 3, -3, v, rng), value)
    refused(lambda v, rng: sample_five_factor_marginal(A, B, A, v, -3, 4, rng), value)


@pytest.mark.parametrize("value", NOT_INTS)
def test_chain_sampler_takes_int_count_and_caps(value):
    chain = [A, B, A]
    refused(lambda v, rng: sample_n_factor_marginal(chain, 3, v, 4, rng), value)
    refused(lambda v, rng: sample_n_factor_marginal(chain, 3, -3, v, rng), value)
    refused(lambda v, rng: sample_n_factor_marginal(chain, v, -3, 4, rng), value)


@pytest.mark.parametrize("value", NOT_INTS)
@pytest.mark.parametrize("sampler", [sample_right_marginal, sample_left_marginal])
def test_one_sided_samplers_take_int_count_and_exact_caps(sampler, value):
    refused(lambda v, rng: sampler(A, v, 20, rng), value)
    if type(value) is Fraction:
        # an exact cap: Fraction(2, 1) reads as the int 2
        assert len(sampler(A, 2, value, random.Random(3))) >= 1
    else:
        with pytest.raises(TypeError):
            sampler(A, 2, value, random.Random(3))


def test_int_arguments_still_draw():
    rng = random.Random(3)
    assert len(sample_additive_marginal(A, 3, 2, rng)) == 3
    assert len(sample_sandwich_marginal(A, 2, -3, 4, rng)) == 2
    assert len(sample_five_factor_marginal(A, B, A, 2, -3, 4, rng)) == 2
    assert len(sample_n_factor_marginal([A, B, A], 2, -3, 4, rng)) == 2


ONE_SIDED = [
    (sample_right_marginal, residual_right),
    (sample_left_marginal, residual_left),
]


@pytest.mark.parametrize("sampler, residual", ONE_SIDED)
@pytest.mark.parametrize(
    "a, unbounded, pinned",
    [(A, POS_INF, NEG_INF), (dual(A), NEG_INF, POS_INF)],
    ids=["min-plus", "max-plus"],
)
def test_one_sided_infinite_caps(sampler, residual, a, unbounded, pinned):
    rng = random.Random(3)
    before = rng.getstate()
    with pytest.raises(ValueError, match="unbounded"):
        sampler(a, 3, unbounded, rng)
    assert rng.getstate() == before
    assert sampler(a, 3, pinned, rng).tuples == ((residual(a),),)


@pytest.mark.parametrize("count, error", [(0, ValueError), (True, TypeError), (2.0, TypeError)])
@pytest.mark.parametrize("sampler", [sample_right_marginal, sample_left_marginal])
@pytest.mark.parametrize("a, pinned", [(A, NEG_INF), (dual(A), POS_INF)], ids=["min-plus", "max-plus"])
def test_a_pinned_box_still_checks_the_count(sampler, a, pinned, count, error):
    # a one-point box is drawn once, whatever the count asked for
    rng = random.Random(3)
    before = rng.getstate()
    with pytest.raises(error, match="tuple count must be"):
        sampler(a, count, pinned, rng)
    assert rng.getstate() == before


def _square(k: int, seed: int):
    rng = random.Random(seed)
    return make_matrix(
        SemiringKind.MIN_PLUS, [[rng.randint(-20, 20) for _ in range(k)] for _ in range(k)]
    )


@pytest.mark.parametrize("k, slots", [(2, 10), (4, 6), (6, 5), (16, 4)])
def test_a_chain_over_the_prefix_budget_is_refused_before_any_draw(k, slots):
    assert k ** (slots - 1) > MAX_CHAIN_PREFIXES
    chain = [_square(k, i) for i in range(slots + 1)]
    rng = random.Random(3)
    before = rng.getstate()
    with pytest.raises(ValueError, match=f"more than {MAX_CHAIN_PREFIXES}"):
        sample_n_factor_marginal(chain, 4, -20, 20, rng)
    assert rng.getstate() == before


def test_a_chain_at_the_prefix_budget_draws():
    chain = [_square(2, i) for i in range(10)]  # 9 slots: 2^8 prefixes
    assert 2 ** 8 == MAX_CHAIN_PREFIXES
    assert len(sample_n_factor_marginal(chain, 2, -20, 20, random.Random(3))) == 2
