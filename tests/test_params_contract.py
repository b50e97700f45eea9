"""ProtocolParams owns its int contract: dim, n_tuples, l, l1, l2 and seed
take builtin ints only, so encode_params never writes a file that
decode_params refuses.

A bool, a str, a float, a Fraction (Fraction(3, 1) included) or None in any
of these fields raises TypeError at construction, and `dataclasses.replace`
goes through the same check.  The decoder reads the fields through the
constructor, so the same values in a file raise WireFormatError.  Every
params object that builds writes bytes that decode back to an equal object
with the same bytes; n_tuples above MAX_TUPLES raises ValueError at
construction.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg.families import CirculantFamily
from tropmarg.matrix import make_matrix
from tropmarg.protocols import MAX_TUPLES, ProtocolParams
from tropmarg.semiring import SemiringKind
from tropmarg.wire import (
    WireFormatError,
    decode_params,
    encode_params,
    from_canonical_bytes,
    to_canonical_bytes,
)

MIN = SemiringKind.MIN_PLUS
INT_FIELDS = ("dim", "n_tuples", "l", "l1", "l2", "seed")
NOT_INTS = [True, False, "3", 2.5, Fraction(3, 1), Fraction(7, 2), None]


def base_params(**fields) -> ProtocolParams:
    """1×1 params, so that dim=True would pass every check but the type."""
    spec = CirculantFamily(MIN, 1, -9, 9)
    return ProtocolParams(
        kind=MIN,
        dim=1,
        publics=(make_matrix(MIN, [[4]]),),
        left_families=(spec,),
        right_families=(spec,),
        **fields,
    )


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
@pytest.mark.parametrize("field", INT_FIELDS)
def test_constructor_refuses_a_non_int_field(field, value):
    with pytest.raises(TypeError, match=f"ProtocolParams.{field} must be an int"):
        replace(base_params(), **{field: value})


@pytest.mark.parametrize("value", [True, "3", None], ids=repr)
@pytest.mark.parametrize("field", INT_FIELDS)
def test_decoder_refuses_a_non_int_field(field, value):
    obj = from_canonical_bytes(encode_params(base_params()))
    obj[field] = value
    with pytest.raises(WireFormatError, match=rf"\.{field} must be an int"):
        decode_params(to_canonical_bytes(obj))


@pytest.mark.parametrize("field", INT_FIELDS)
def test_decoder_refuses_a_missing_field(field):
    obj = from_canonical_bytes(encode_params(base_params()))
    del obj[field]
    with pytest.raises(WireFormatError, match=rf"\.{field} must be an int"):
        decode_params(to_canonical_bytes(obj))


@pytest.mark.parametrize("value", [MAX_TUPLES + 1, str(MAX_TUPLES + 1)])
def test_decoder_caps_n_tuples_after_the_type_check(value):
    obj = from_canonical_bytes(encode_params(base_params()))
    obj["n_tuples"] = value
    with pytest.raises(WireFormatError):
        decode_params(to_canonical_bytes(obj))


ANY_VALUE = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(1, MAX_TUPLES + 3),
    st.booleans(),
    st.text(max_size=2),
    st.floats(allow_nan=False),
    st.fractions(max_denominator=4),
    st.none(),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.fixed_dictionaries({f: ANY_VALUE for f in INT_FIELDS if f != "dim"}))
def test_every_params_that_builds_decodes_back(fields):
    n_tuples = fields["n_tuples"]
    if type(n_tuples) is int and n_tuples > MAX_TUPLES:
        with pytest.raises(ValueError, match=f"n_tuples must be <= {MAX_TUPLES}"):
            base_params(**fields)
        return
    try:
        p = base_params(**fields)
    except (TypeError, ValueError):
        return
    assert all(type(getattr(p, f)) is int for f in INT_FIELDS)
    data = encode_params(p)
    back = decode_params(data)
    assert back == p
    assert encode_params(back) == data
