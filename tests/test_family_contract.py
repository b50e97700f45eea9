"""Each family spec class owns its contract.

A spec is checked when it is built: int fields take builtin ints only, the
circulant families need lo <= hi, a Jones family a denominator cap >= 1 and
stores its alphas as Fractions, and an LdP family needs int r and k.  So
every spec that constructs can be drawn from, and its params encode and
decode to an equal spec with identical bytes.  The property test is
derandomized, so the suite sees the same specs on every run.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropmarg.families import (
    MAX_POLY_DEGREE,
    CirculantFamily,
    JonesDeformFamily,
    LdpFamily,
    LowerSCirculantFamily,
    PolyFamily,
    UpperTCirculantFamily,
    deform,
    is_jones,
    sample_family_member,
    sample_jones,
)
from tropmarg.fixtures import JONES_BASE, OS_A
from tropmarg.matrix import make_matrix
from tropmarg.protocols import ProtocolParams
from tropmarg.semiring import NEG_INF, POS_INF, SemiringKind, add_neutral
from tropmarg.wire import (
    WireFormatError,
    decode_params,
    encode_params,
)

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS


def _params(spec) -> ProtocolParams:
    rng = random.Random(0)
    n = spec.dim
    w = make_matrix(spec.kind, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    return ProtocolParams(
        kind=spec.kind, dim=n, publics=(w,), left_families=(spec,),
        right_families=(spec,), seed=5,
    )


def _round_trip(spec):
    """The spec read back from its encoded params; the bytes must repeat."""
    data = encode_params(_params(spec))
    back = decode_params(data)
    assert encode_params(back) == data
    assert back.left_families == back.right_families == (spec,)
    return back.left_families[0]


# ---------------------------------------------------------------------------
# One regression per defect of the wire-only contract


def test_int_alphas_are_stored_as_fractions_and_round_trip_byte_identical():
    spec = JonesDeformFamily(JONES_BASE, 0, 1)
    assert type(spec.alpha_lo) is Fraction and type(spec.alpha_hi) is Fraction
    assert spec == JonesDeformFamily(JONES_BASE)
    back = _round_trip(spec)
    assert type(back.alpha_lo) is Fraction and type(back.alpha_hi) is Fraction


def test_fraction_ldp_parameters_are_refused_when_built():
    with pytest.raises(TypeError):
        LdpFamily(2, Fraction(1, 2), 0)
    with pytest.raises(TypeError):
        LdpFamily(2, 4, Fraction(-1, 2))


def test_empty_lo_his_are_refused_when_built():
    with pytest.raises(ValueError):
        CirculantFamily(MIN, 3, 5, 1)
    with pytest.raises(ValueError):
        UpperTCirculantFamily(MIN, 3, 2, 5, 1)
    with pytest.raises(ValueError):
        LowerSCirculantFamily(MAX, 3, 2, 5, 1)


def test_a_zero_denominator_cap_is_refused_when_built():
    with pytest.raises(ValueError):
        JonesDeformFamily(JONES_BASE, max_denominator=0)


def test_a_jones_base_with_an_infinite_diagonal_is_refused_when_built():
    base = make_matrix(MAX, [[NEG_INF]])
    assert is_jones(base)
    with pytest.raises(ValueError):
        JonesDeformFamily(base)
    with pytest.raises(ValueError, match="finite diagonal"):
        deform(base, 1)


def test_bool_ints_are_refused_when_built():
    with pytest.raises(TypeError):
        PolyFamily(OS_A, True, 0, 1)
    with pytest.raises(TypeError):
        CirculantFamily(MIN, 3, False, 1)
    with pytest.raises(TypeError):
        JonesDeformFamily(JONES_BASE, max_denominator=True)


def test_scales_are_stored_canonically():
    spec = UpperTCirculantFamily(MIN, 3, Fraction(4, 2), -3, 3)
    assert type(spec.t) is int and spec.t == 2
    assert _round_trip(spec) == spec
    with pytest.raises(ValueError):
        LowerSCirculantFamily(MIN, 3, add_neutral(MAX), -3, 3)


def test_the_degree_cap_holds_on_both_sides():
    with pytest.raises(ValueError, match=f"PolyFamily.max_degree must be <= {MAX_POLY_DEGREE}"):
        PolyFamily(OS_A, MAX_POLY_DEGREE + 1, 0, 1)
    data = encode_params(_params(PolyFamily(OS_A, MAX_POLY_DEGREE, 0, 1)))
    field = '"max_degree":{}'
    over = data.replace(
        field.format(MAX_POLY_DEGREE).encode(), field.format(MAX_POLY_DEGREE + 1).encode()
    )
    assert over != data
    with pytest.raises(WireFormatError):
        decode_params(over)


# ---------------------------------------------------------------------------
# Every spec that constructs can be drawn from, written and read back

JUNK = [True, False, 1.5, None, "3", Fraction(1, 2), Fraction(4, 1), POS_INF, NEG_INF]
kinds = st.sampled_from([MIN, MAX])


@st.composite
def _mostly(draw, valid):
    """A value of `valid` most of the time, junk otherwise."""
    return draw(valid) if draw(st.integers(0, 9)) else draw(st.sampled_from(JUNK))


dims = _mostly(st.integers(1, 3))
small = st.integers(-40, 40)
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _lo_hi(draw):
    """lo and hi, now and then with lo > hi."""
    lo = draw(small)
    return lo, lo + draw(st.integers(-2, 7))


@st.composite
def _square(draw, kind, n):
    entry = st.one_of(small, small, st.just(add_neutral(kind)))
    return make_matrix(kind, [[draw(entry) for _ in range(n)] for _ in range(n)])


@st.composite
def _jones_base(draw):
    n = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**16)))
    pick = draw(st.integers(0, 5))
    if pick > 2:
        return sample_jones(n, -9, 9, rng)
    return JONES_BASE if pick == 2 else draw(_square(MAX if pick else MIN, n))


FAMILIES = [
    PolyFamily, CirculantFamily, UpperTCirculantFamily,
    LowerSCirculantFamily, JonesDeformFamily, LdpFamily,
]


@st.composite
def spec_args(draw, cls):
    """Arguments for `cls` that may or may not meet its contract."""
    if cls is PolyFamily:
        base = draw(_square(draw(kinds), draw(st.integers(1, 3))))
        lo, hi = draw(_lo_hi())
        degree = draw(_mostly(st.integers(-1, MAX_POLY_DEGREE)))
        return base, degree, draw(_mostly(st.just(lo))), draw(_mostly(st.just(hi)))
    kind, dim = draw(kinds), draw(dims)
    lo, hi = draw(_lo_hi())
    lo, hi = draw(_mostly(st.just(lo))), draw(_mostly(st.just(hi)))
    if cls is CirculantFamily:
        return kind, dim, lo, hi
    if cls in (UpperTCirculantFamily, LowerSCirculantFamily):
        scale = draw(st.one_of(small, fractions, st.sampled_from([*JUNK, Fraction(6, 3)])))
        return kind, dim, scale, lo, hi
    if cls is JonesDeformFamily:
        alpha = _mostly(st.one_of(
            st.fractions(min_value=0, max_value=1, max_denominator=12),
            st.sampled_from([0, 1, Fraction(-1, 3), Fraction(3, 2)]),
        ))
        low, high = draw(alpha), draw(alpha)
        if all(type(a) in (int, Fraction) for a in (low, high)) and high < low:
            low, high = high, low
        den = draw(_mostly(st.integers(0, 30)))
        return draw(_jones_base()), low, high, den
    return (dim, draw(_mostly(st.integers(-3, 40))), draw(_mostly(st.integers(-40, 3))))


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda cls: cls.tag)
@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_spec_that_constructs_draws_and_round_trips(cls, data):
    args = data.draw(spec_args(cls))
    try:
        spec = cls(*args)
    except (TypeError, ValueError):
        return
    member = sample_family_member(spec, random.Random(1))
    assert member.kind is spec.kind and member.dim == spec.dim
    assert _round_trip(spec) == spec
