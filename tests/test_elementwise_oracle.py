"""The int-first scalar helpers and elementwise matrix ops against the loops
they replaced.

The references below are the earlier `as_scalar`, `s_mul`, `s_sub`, `s_neg`
and `_norm` of `tropmarg.semiring`, and the earlier `mat_add`,
`scalar_mul`, `dual`, `Matrix.is_finite`, `residual_right` and
`residual_left`, kept verbatim: one `s_*` call per entry, each result
normalized.  The code under test must give the same outcome: an equal
value of the same type with the same `repr` in every entry, or the same
exception with the same message.  Matrices are built both through
`make_matrix` (canonical entries) and directly with `Matrix(...)`, where a
`Fraction` with denominator 1 stays a `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg.marginal import residual_left, residual_right
from tropmarg.matrix import Matrix, dual, make_matrix, mat_add, scalar_mul
from tropmarg.semiring import (
    NEG_INF,
    POS_INF,
    SemiringKind,
    _Infinity,
    _norm,
    add_neutral,
    as_scalar,
    is_finite,
    s_add,
    s_mul,
    s_neg,
    s_sub,
)

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS

# ---------------------------------------------------------------------------
# Reference scalar layer (verbatim).


def ref_as_scalar(value):
    if value is POS_INF or value is NEG_INF:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"not an exact scalar: {value!r}")


def ref_s_mul(a, b):
    a_inf = isinstance(a, _Infinity)
    b_inf = isinstance(b, _Infinity)
    if a_inf or b_inf:
        if a_inf and b_inf and a is not b:
            raise ArithmeticError("+inf and -inf cannot be combined")
        return a if a_inf else b
    return ref_norm(a + b)


def ref_s_neg(a):
    if isinstance(a, _Infinity):
        return -a
    return ref_norm(-a)


def ref_s_sub(a, b):
    if isinstance(a, _Infinity) or isinstance(b, _Infinity):
        raise ArithmeticError("difference of non-finite scalars")
    return ref_norm(a - b)


def ref_norm(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


# ---------------------------------------------------------------------------
# Reference elementwise ops (verbatim, over the reference scalar layer).


def ref_is_finite(a: Matrix) -> bool:
    return all(is_finite(x) for row in a.rows for x in row)


def ref_mat_add(a: Matrix, b: Matrix) -> Matrix:
    if a.kind is not b.kind:
        raise TypeError(f"semiring mismatch: {a.kind} vs {b.kind}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    k = a.kind
    return Matrix(
        k,
        tuple(
            tuple(s_add(k, x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(a.rows, b.rows)
        ),
    )


def ref_scalar_mul(c, a: Matrix) -> Matrix:
    c = ref_as_scalar(c)
    return Matrix(a.kind, tuple(tuple(ref_s_mul(c, x) for x in row) for row in a.rows))


def ref_dual(a: Matrix) -> Matrix:
    return Matrix(
        a.kind.dual, tuple(tuple(ref_s_neg(x) for x in row) for row in a.rows)
    )


def _ref_flip(kind):
    return (lambda x: x) if kind is MIN else ref_dual


def _transpose(a: Matrix) -> Matrix:
    return Matrix(a.kind, tuple(zip(*a.rows)))


def ref_residual_right(a: Matrix) -> Matrix:
    if not ref_is_finite(a):
        raise ValueError("residuation requires finite entries")
    flip = _ref_flip(a.kind)
    m = flip(a).rows
    n = a.dim
    rows = tuple(
        tuple(max(ref_s_sub(m[l][j], m[l][i]) for l in range(n)) for j in range(n))
        for i in range(n)
    )
    return flip(Matrix(MIN, rows))


def ref_residual_left(a: Matrix) -> Matrix:
    return _transpose(ref_residual_right(_transpose(a)))


# ---------------------------------------------------------------------------
# Outcomes


def outcome(fn, *args):
    """("ok", type, repr) of the result, or ("raise", type, message)."""
    try:
        value = fn(*args)
    except Exception as e:  # the exception itself is the outcome compared
        return ("raise", type(e), str(e))
    if isinstance(value, Matrix):
        entries = tuple(tuple((type(x), repr(x)) for x in row) for row in value.rows)
        return ("ok", value.kind, entries)
    return ("ok", type(value), repr(value))


def assert_same_outcome(fn, ref, *args):
    assert outcome(fn, *args) == outcome(ref, *args)


# ---------------------------------------------------------------------------
# Strategies

KINDS = st.sampled_from([MIN, MAX])
INTS = st.integers(-60, 60)
# Denominators 1-4: sums and differences often reach denominator 1, and
# Fraction(n, 1) is a Fraction that only a direct Matrix(...) keeps.
FRACTIONS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 4))
INFS = st.sampled_from([POS_INF, NEG_INF])
SCALARS = st.one_of(INTS, FRACTIONS, INFS)
JUNK = st.sampled_from([True, False, 1.5, -0.0, float("inf"), "3", None])


@st.composite
def matrices(draw, kind, n, finite=False):
    o = add_neutral(kind)
    entries = st.one_of(INTS, FRACTIONS) if finite else st.one_of(INTS, FRACTIONS, st.just(o))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        return make_matrix(kind, rows)
    return Matrix(kind, tuple(map(tuple, rows)))


@st.composite
def operands(draw, count, finite=False):
    kind = draw(KINDS)
    n = draw(st.integers(1, 6))
    return [draw(matrices(kind, n, finite)) for _ in range(count)]


# ---------------------------------------------------------------------------
# Scalar layer


@settings(max_examples=400, deadline=None)
@given(st.one_of(SCALARS, JUNK), st.one_of(SCALARS, JUNK))
def test_scalar_helpers_match_reference(a, b):
    assert_same_outcome(as_scalar, ref_as_scalar, a)
    assert_same_outcome(_norm, ref_norm, a)
    assert_same_outcome(s_neg, ref_s_neg, a)
    assert_same_outcome(s_mul, ref_s_mul, a, b)
    assert_same_outcome(s_sub, ref_s_sub, a, b)


def test_scalar_sums_reaching_denominator_one_are_ints():
    h = Fraction(1, 2)
    for got in (s_mul(h, h), s_sub(h, -h), s_neg(Fraction(4, 2)), _norm(Fraction(3, 1))):
        assert type(got) is int
    assert type(as_scalar(Fraction(6, 3))) is int


def test_scalar_errors():
    with pytest.raises(ArithmeticError, match="cannot be combined"):
        s_mul(POS_INF, NEG_INF)
    for a, b in [(POS_INF, 1), (1, NEG_INF), (NEG_INF, NEG_INF)]:
        with pytest.raises(ArithmeticError, match="non-finite"):
            s_sub(a, b)
    for junk in (True, 1.5, "3", None):
        with pytest.raises(TypeError):
            as_scalar(junk)


# ---------------------------------------------------------------------------
# Elementwise matrix ops


@settings(max_examples=300, deadline=None)
@given(operands(2))
def test_mat_add_matches_reference(ops):
    a, b = ops
    assert_same_outcome(mat_add, ref_mat_add, a, b)
    assert_same_outcome(mat_add, ref_mat_add, b, a)


def test_mat_add_ties_keep_the_reference_operand():
    # Equal values of different types: the pick on a tie shows in the type.
    for kind in (MIN, MAX):
        a = Matrix(kind, ((Fraction(2, 1), 3), (0, 1)))
        b = Matrix(kind, ((2, Fraction(3, 1)), (1, 0)))
        assert_same_outcome(mat_add, ref_mat_add, a, b)
        assert_same_outcome(mat_add, ref_mat_add, b, a)


@settings(max_examples=300, deadline=None)
@given(operands(1), st.one_of(SCALARS, JUNK))
def test_scalar_mul_matches_reference(ops, c):
    (a,) = ops
    assert_same_outcome(scalar_mul, ref_scalar_mul, c, a)


def test_scalar_mul_sums_reaching_denominator_one():
    a = Matrix(MIN, ((Fraction(1, 2), Fraction(3, 2)), (POS_INF, Fraction(4, 2))))
    for c in (Fraction(1, 2), Fraction(-3, 2), 1):
        assert_same_outcome(scalar_mul, ref_scalar_mul, c, a)
    assert type(scalar_mul(Fraction(1, 2), a).rows[0][0]) is int


def test_scalar_mul_infinite_scale():
    finite = make_matrix(MIN, [[0, 1], [2, Fraction(1, 3)]])
    holed = make_matrix(MIN, [[0, POS_INF], [2, 3]])
    for c, a in [(POS_INF, finite), (POS_INF, holed), (NEG_INF, finite), (NEG_INF, holed)]:
        assert_same_outcome(scalar_mul, ref_scalar_mul, c, a)
    with pytest.raises(ArithmeticError, match="cannot be combined"):
        scalar_mul(NEG_INF, holed)
    with pytest.raises(ValueError, match="not allowed"):
        scalar_mul(NEG_INF, finite)


@pytest.mark.parametrize("junk", [True, 1.5, "3"])
def test_scalar_mul_rejects_non_scalars(junk):
    with pytest.raises(TypeError):
        scalar_mul(junk, make_matrix(MIN, [[0]]))


@settings(max_examples=300, deadline=None)
@given(operands(1))
def test_dual_and_is_finite_match_reference(ops):
    (a,) = ops
    assert_same_outcome(dual, ref_dual, a)
    assert a.is_finite() is ref_is_finite(a)


@settings(max_examples=300, deadline=None)
@given(st.one_of(operands(1, finite=True), operands(1)))
def test_residuals_match_reference(ops):
    (a,) = ops
    assert_same_outcome(residual_right, ref_residual_right, a)
    assert_same_outcome(residual_left, ref_residual_left, a)


def test_residual_of_an_infinite_matrix_raises():
    for kind in (MIN, MAX):
        a = make_matrix(kind, [[0, add_neutral(kind)], [1, 2]])
        with pytest.raises(ValueError, match="finite"):
            residual_right(a)
        with pytest.raises(ValueError, match="finite"):
            residual_left(a)
