"""Sampler counts and caps that feed `random` must be builtin ints.

A float, a bool or a `Fraction` in a tuple count or an integer cap is
refused with TypeError before the first draw, so the generator's state is
left as it was.  The one-sided caps stay any exact scalar.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tropmarg.marginal import (
    sample_additive_marginal,
    sample_five_factor_marginal,
    sample_left_marginal,
    sample_n_factor_marginal,
    sample_right_marginal,
    sample_sandwich_marginal,
)
from tropmarg.matrix import make_matrix
from tropmarg.semiring import SemiringKind

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
