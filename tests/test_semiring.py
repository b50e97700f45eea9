"""The scalar layer: canonical scalars, the two semirings' neutrals, and
the infinities' plain Python order and sum, checked against a reference
order key over ints, Fractions and both infinities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg.semiring import (
    MUL_NEUTRAL,
    NEG_INF,
    POS_INF,
    SemiringKind,
    add_neutral,
    as_scalar,
    is_finite,
)

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS


def test_kind_duality():
    assert MIN.dual is MAX
    assert MAX.dual is MIN
    assert str(MIN) == "min-plus"
    assert str(MAX) == "max-plus"


def test_as_scalar_normalizes():
    assert as_scalar(3) == 3
    assert as_scalar(Fraction(6, 2)) == 3
    assert isinstance(as_scalar(Fraction(6, 2)), int)
    assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert as_scalar(POS_INF) is POS_INF


@pytest.mark.parametrize("junk", [1.5, float("inf"), True, "3", None])
def test_as_scalar_rejects(junk):
    with pytest.raises(TypeError):
        as_scalar(junk)


def test_order_with_infinities():
    assert NEG_INF < -(10**9)
    assert 10**9 < POS_INF
    assert not POS_INF < POS_INF
    assert NEG_INF <= NEG_INF
    assert min(POS_INF, 5) == 5
    assert max(NEG_INF, Fraction(-1, 2)) == Fraction(-1, 2)


def test_semiring_sum_picks_by_kind():
    # the semiring sum is min over min-plus and max over max-plus
    assert min(2, 7) == 2
    assert max(2, 7) == 7
    assert min(POS_INF, 7) == 7
    assert max(NEG_INF, 7) == 7


def test_neutrals():
    assert add_neutral(MIN) is POS_INF
    assert add_neutral(MAX) is NEG_INF
    assert MUL_NEUTRAL == 0
    assert MUL_NEUTRAL + 11 == 11


def test_mul_absorbs_infinity():
    assert POS_INF + 4 is POS_INF
    assert -3 + NEG_INF is NEG_INF
    assert POS_INF + POS_INF is POS_INF
    with pytest.raises(ArithmeticError):
        POS_INF + NEG_INF


def test_mul_keeps_exactness():
    # a sum of Fractions may reach denominator 1; as_scalar makes it an int
    x = as_scalar(Fraction(1, 3) + Fraction(2, 3))
    assert x == 1 and isinstance(x, int)


def test_negation_and_subtraction():
    assert -POS_INF is NEG_INF
    assert -NEG_INF is POS_INF
    assert Fraction(1, 2) - 2 == Fraction(-3, 2)
    with pytest.raises(ArithmeticError):
        POS_INF - 1
    with pytest.raises(ArithmeticError):
        0 - NEG_INF


def test_is_finite():
    assert is_finite(0) and is_finite(Fraction(7, 3))
    assert not is_finite(POS_INF) and not is_finite(NEG_INF)


# ---------------------------------------------------------------------------
# The infinities' arithmetic against a reference order key


def order_key(x):
    """(tier, value): NEG_INF below every finite value below POS_INF."""
    if x is NEG_INF:
        return (-1, 0)
    if x is POS_INF:
        return (1, 0)
    return (0, x)


EXACT = st.one_of(
    st.integers(-(10**12), 10**12),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 6)),
    st.sampled_from([POS_INF, NEG_INF]),
)
INEXACT = st.sampled_from([True, False, 1.5, -0.0, float("inf"), float("nan")])


@settings(max_examples=400, deadline=None)
@given(EXACT, EXACT, INEXACT)
def test_infinities_order_and_add_like_numbers(a, b, junk):
    ka, kb = order_key(a), order_key(b)
    assert (a < b) is (ka < kb)
    assert (a <= b) is (ka <= kb)
    assert (a > b) is (ka > kb)
    assert (a >= b) is (ka >= kb)
    assert order_key(min(a, b)) == min(ka, kb)
    assert order_key(max(a, b)) == max(ka, kb)

    infinite = [x for x in (a, b) if not is_finite(x)]
    if len(set(map(id, infinite))) == 2:
        with pytest.raises(ArithmeticError):
            a + b
        with pytest.raises(ArithmeticError):
            b + a
    else:
        assert a + b == b + a
        if infinite:
            assert a + b is infinite[0]
    if infinite:
        with pytest.raises(ArithmeticError):
            a - b
        with pytest.raises(ArithmeticError):
            b - a

    for inf in (POS_INF, NEG_INF):
        for op in (
            lambda x, y: x < y,
            lambda x, y: x <= y,
            lambda x, y: x > y,
            lambda x, y: x >= y,
            lambda x, y: x + y,
            lambda x, y: x - y,
        ):
            with pytest.raises(TypeError):
                op(inf, junk)
            with pytest.raises(TypeError):
                op(junk, inf)
