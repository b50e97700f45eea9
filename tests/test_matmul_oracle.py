"""The common-denominator `mat_mul` kernel against the scalar loop it replaced.

The reference below is the earlier `mat_mul` of `tropmarg.matrix`, kept
verbatim: one `+` and one `min` or `max` per term.  The kernel under test must
return an equal matrix whose entries are canonical: an `int` wherever the
value's denominator is 1, a `Fraction` otherwise, and the semiring's
infinity as the singleton itself.  `mat_prod`, `mat_pow` and `poly_eval`,
which no longer multiply by the identity, are checked against references
that start from it.  `linear_combination` and `poly_eval`, each one
entrywise pass, are checked against the earlier `poly_eval`'s fold
`scalar_mul(c₀, I) ⊕ … ⊕ scalar_mul(c_d, Aᵈ)`, kept below as `ref_fold`.
The paths that lift `Fraction`s to ints once, `mat_prod`'s chain,
`commute_check` and `marginal._into_min_plus`, are checked against the
product-by-product path at the end.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg import matrix
from tropmarg.families import commute_check
from tropmarg.marginal import _into_min_plus
from tropmarg.matrix import (
    Matrix,
    identity,
    linear_combination,
    make_matrix,
    make_poly,
    mat_add,
    mat_mul,
    mat_pow,
    mat_prod,
    neutral_matrix,
    poly_eval,
    powers,
    scalar_mul,
)
from tropmarg.semiring import NEG_INF, POS_INF, SemiringKind, add_neutral

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS

# ---------------------------------------------------------------------------
# Reference product (verbatim) and identity-start references.


def _check_same(a: Matrix, b: Matrix) -> None:
    if a.kind is not b.kind:
        raise TypeError(f"semiring mismatch: {a.kind} vs {b.kind}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def ref_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Tropical product: (a ⊗ b)_ij = sum-reduce over l of a_il + b_lj."""
    _check_same(a, b)
    k = a.kind
    pick = min if k is MIN else max
    n = a.dim
    cols = tuple(zip(*b.rows))
    out = []
    for i in range(n):
        ra = a.rows[i]
        out_row = []
        for j in range(n):
            cb = cols[j]
            acc = ra[0] + cb[0]
            for l in range(1, n):
                acc = pick(acc, ra[l] + cb[l])
            out_row.append(acc)
        out.append(tuple(out_row))
    return Matrix(k, tuple(out))


def ref_mat_prod(kind, n, factors):
    acc = identity(kind, n)
    for f in factors:
        acc = ref_mat_mul(acc, f)
    return acc


def ref_mat_pow(a, e):
    if e < 0:
        raise ValueError("negative power")
    acc = identity(a.kind, a.dim)
    for _ in range(e):
        acc = ref_mat_mul(acc, a)
    return acc


def ref_poly_eval(p, a):
    acc = scalar_mul(p.coeffs[0], identity(a.kind, a.dim))
    power = identity(a.kind, a.dim)
    for c in p.coeffs[1:]:
        power = ref_mat_mul(power, a)
        acc = mat_add(acc, scalar_mul(c, power))
    return acc


def ref_fold(kind, n, coeffs, mats):
    """The earlier poly_eval's fold, over any matrices: one scalar_mul per
    term and a mat_add chain, from the all-infinity matrix."""
    acc = neutral_matrix(kind, n)
    for c, m in zip(coeffs, mats):
        acc = mat_add(acc, scalar_mul(c, m))
    return acc


def assert_same(got: Matrix, want: Matrix) -> None:
    """Equal, with canonical entries of the reference's types."""
    assert got == want
    assert got.kind is want.kind
    o = add_neutral(got.kind)
    for row, want_row in zip(got.rows, want.rows):
        for x, y in zip(row, want_row):
            if y is o:
                assert x is o
            elif isinstance(x, Fraction):
                assert x.denominator > 1
            else:
                assert type(x) is int
            assert type(x) is type(y)


# ---------------------------------------------------------------------------
# Strategies

KINDS = st.sampled_from([MIN, MAX])
SHAPES = ["int", "fraction", "infinite", "inf-row", "inf-col", "identity", "neutral"]


@st.composite
def matrices(draw, kind, n):
    shape = draw(st.sampled_from(SHAPES))
    if shape == "identity":
        return identity(kind, n)
    if shape == "neutral":
        return neutral_matrix(kind, n)
    o = add_neutral(kind)
    ints = st.integers(-60, 60)
    fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 6))
    scalar = {
        "int": ints,
        "fraction": st.one_of(ints, fractions),
    }.get(shape, st.one_of(ints, fractions, st.just(o)))
    rows = [[draw(scalar) for _ in range(n)] for _ in range(n)]
    if shape == "inf-row":
        rows[draw(st.integers(0, n - 1))] = [o] * n
    elif shape == "inf-col":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = o
    return make_matrix(kind, rows)


@st.composite
def products(draw, count=2):
    kind = draw(KINDS)
    n = draw(st.integers(1, 8))
    return kind, n, [draw(matrices(kind, n)) for _ in range(count)]


# ---------------------------------------------------------------------------
# Tests


@settings(max_examples=300, deadline=None)
@given(products())
def test_kernel_matches_scalar_loop(case):
    _, _, (a, b) = case
    assert_same(mat_mul(a, b), ref_mat_mul(a, b))


@pytest.mark.parametrize("kind", [MIN, MAX])
@pytest.mark.parametrize("n", [1, 4, 8])
def test_identity_and_neutral_operands(kind, n):
    a = make_matrix(
        kind, [[Fraction(i - 2 * j, 1 + (i + j) % 6) for j in range(n)] for i in range(n)]
    )
    e, o = identity(kind, n), neutral_matrix(kind, n)
    for x, y in [(a, e), (e, a), (a, o), (o, a), (e, e), (o, o), (e, o)]:
        assert_same(mat_mul(x, y), ref_mat_mul(x, y))
    assert_same(mat_mul(a, e), a)
    assert_same(mat_mul(a, o), o)


def test_denominators_cancel_to_int():
    a = make_matrix(MIN, [[Fraction(1, 6), Fraction(5, 3)], [Fraction(1, 2), 0]])
    b = make_matrix(MIN, [[Fraction(5, 6), Fraction(1, 3)], [Fraction(-1, 6), 2]])
    got = mat_mul(a, b)
    assert_same(got, ref_mat_mul(a, b))
    assert got.rows[0][0] == 1 and type(got.rows[0][0]) is int


def test_mixed_semirings_and_dimensions_rejected():
    a = make_matrix(MIN, [[0, 1], [2, 3]])
    with pytest.raises(TypeError, match="semiring mismatch"):
        mat_mul(a, make_matrix(MAX, [[0, 1], [2, 3]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_mul(a, make_matrix(MIN, [[0]]))


@settings(max_examples=100, deadline=None)
@given(products(count=4), st.integers(0, 4))
def test_mat_prod_matches_identity_start(case, count):
    kind, n, factors = case
    factors = factors[:count]
    assert_same(mat_prod(kind, n, factors), ref_mat_prod(kind, n, factors))
    assert_same(mat_prod(kind, n, iter(factors)), ref_mat_prod(kind, n, factors))


@settings(max_examples=100, deadline=None)
@given(products(count=1), st.integers(0, 5))
def test_mat_pow_matches_identity_start(case, e):
    _, _, (a,) = case
    assert_same(mat_pow(a, e), ref_mat_pow(a, e))


@settings(max_examples=100, deadline=None)
@given(products(count=1), st.data())
def test_poly_eval_matches_identity_start(case, data):
    kind, _, (a,) = case
    o = add_neutral(kind)
    coeffs = data.draw(
        st.lists(
            st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), st.just(o)),
            min_size=1,
            max_size=5,
        )
    )
    p = make_poly(kind, coeffs)
    assert_same(poly_eval(p, a), ref_poly_eval(p, a))


def coefficients(kind):
    """ints, Fractions and the semiring's infinity."""
    return st.one_of(
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
        st.just(add_neutral(kind)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_linear_combination_and_poly_eval_match_the_fold(data):
    kind = data.draw(KINDS)
    n = data.draw(st.integers(1, 6))
    a = data.draw(matrices(kind, n))
    coeffs = data.draw(st.lists(coefficients(kind), min_size=1, max_size=5))
    basis = [identity(kind, n), *powers(a, len(coeffs) - 1)]
    want = ref_fold(kind, n, coeffs, basis)
    assert_same(poly_eval(make_poly(kind, coeffs), a), want)
    assert_same(linear_combination(kind, n, coeffs, basis), want)
    # any matrices, none to five of them
    mats = data.draw(st.lists(matrices(kind, n), max_size=5))
    cs = [data.draw(coefficients(kind)) for _ in mats]
    assert_same(linear_combination(kind, n, cs, mats), ref_fold(kind, n, cs, mats))


@pytest.mark.parametrize("kind", [MIN, MAX])
def test_linear_combination_edges(kind):
    o = add_neutral(kind)
    a = make_matrix(kind, [[1, Fraction(1, 2)], [o, 3]])
    assert_same(linear_combination(kind, 2, [], []), neutral_matrix(kind, 2))
    assert_same(linear_combination(kind, 2, [o, o], [a, a]), neutral_matrix(kind, 2))
    assert_same(linear_combination(kind, 2, [Fraction(1, 2)], [a]), scalar_mul(Fraction(1, 2), a))
    # a Fraction c₀ wins the diagonal of an all-int sum
    ints = make_matrix(kind, [[1, 2], [3, 4]])
    c0 = Fraction(-1, 2) if kind is MIN else Fraction(19, 2)
    got = poly_eval(make_poly(kind, [c0, 0]), ints)
    assert_same(got, ref_fold(kind, 2, [c0, 0], [identity(kind, 2), ints]))
    assert got.rows[0][0] == got.rows[1][1] == c0 and got.den == 2
    with pytest.raises(TypeError, match="semiring mismatch"):
        linear_combination(kind, 2, [0], [make_matrix(kind.dual, [[0, 0], [0, 0]])])
    with pytest.raises(ValueError, match="dimension mismatch"):
        linear_combination(kind, 2, [0], [make_matrix(kind, [[0]])])
    with pytest.raises(ValueError):
        linear_combination(kind, 2, [0, 1], [a])


@pytest.mark.parametrize("kind", [MIN, MAX])
def test_empty_product_is_the_identity(kind):
    assert_same(mat_prod(kind, 3, []), identity(kind, 3))
    assert_same(mat_prod(kind, 3, iter(())), identity(kind, 3))
    assert_same(mat_pow(make_matrix(kind, [[1, 2], [3, 4]]), 0), identity(kind, 2))


@pytest.mark.parametrize("first", ["kind", "dim"])
@pytest.mark.parametrize("count", [1, 2])
def test_bad_first_factor_raises_as_before(first, count):
    good = make_matrix(MIN, [[0, 1], [2, 3]])
    bad = make_matrix(MAX, [[0, 1], [2, 3]]) if first == "kind" else make_matrix(MIN, [[0]])
    factors = [bad] + [good] * (count - 1)
    error = TypeError if first == "kind" else ValueError
    with pytest.raises(error) as want:
        ref_mat_prod(MIN, 2, factors)
    with pytest.raises(error) as got:
        mat_prod(MIN, 2, factors)
    assert str(got.value) == str(want.value)


def test_negative_power_raises():
    with pytest.raises(ValueError, match="exponent must be >= 0"):
        mat_pow(make_matrix(MIN, [[0]]), -1)


# ---------------------------------------------------------------------------
# Lifted chains.  mat_prod lifts a chain holding Fractions to ints once, by
# the lcm of its factors' denominators, and unscales only the result;
# commute_check compares both products in lifted ints; and marginal's
# boundary crosses max-plus Fractions by scaling and negating ints.  Each
# must agree with the product-by-product path, scalar types and facts too.


def assert_identical(got: Matrix, want: Matrix) -> None:
    assert repr(got) == repr(want)
    assert (got.has_inf, got.den, got.all_int) == (want.has_inf, want.den, want.all_int)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_lifted_chain_matches_the_fold(data):
    count = data.draw(st.integers(1, 6))
    kind, n, factors = data.draw(products(count=count))
    assert_identical(mat_prod(kind, n, factors), functools.reduce(mat_mul, factors))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(products(count=1), st.data())
def test_commute_check_matches_both_products(case, data):
    kind, n, (a,) = case
    # a random partner rarely commutes with a; these always do
    b = data.draw(
        st.one_of(
            matrices(kind, n),
            st.just(a),
            st.just(identity(kind, n)),
            st.just(mat_mul(a, a)),
            coefficients(kind).map(lambda c: scalar_mul(c, a)),
        )
    )
    assert commute_check(a, b) is (mat_mul(a, b) == mat_mul(b, a))
    assert commute_check(b, a) is (mat_mul(b, a) == mat_mul(a, b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_the_boundary_carries_fractions_there_and_back(data):
    count = data.draw(st.integers(1, 3))
    kind, n, mats = data.draw(products(count=count))
    d, lowered, back = _into_min_plus(mats)
    for m, low in zip(mats, lowered):
        assert low.kind is MIN
        assert all(type(x) is int or x is POS_INF for row in low.rows for x in row)
        o, sign = add_neutral(kind), -1 if kind is MAX else 1
        want = [[POS_INF if x is o else int(sign * d * x) for x in row] for row in m.rows]
        assert repr(low.rows) == repr(tuple(map(tuple, want)))
        assert_identical(back(low), m)


def test_the_boundary_carries_a_max_plus_fraction_chain_with_infinities():
    a = make_matrix(MAX, [[Fraction(1, 2), NEG_INF], [3, Fraction(-5, 3)]])
    b = make_matrix(MAX, [[NEG_INF, Fraction(7, 4)], [0, NEG_INF]])
    d, (la, lb), back = _into_min_plus([a, b])
    assert d == 12
    assert la.rows == ((-6, POS_INF), (-36, 20)) and lb.rows == ((POS_INF, -21), (0, POS_INF))
    assert_identical(back(la), a)
    assert_identical(back(lb), b)
    # a product formed below the boundary comes back as the max-plus product
    assert_identical(back(mat_mul(la, lb)), mat_mul(a, b))


@pytest.mark.parametrize("kind", [MIN, MAX])
def test_a_fraction_chain_is_unscaled_once_per_result_entry(kind, monkeypatch):
    """Five finite Fraction factors at dim 4: the chain unscales its 16
    result entries, where a fold of mat_mul unscales 16 per product."""
    factors = [
        make_matrix(
            kind,
            [[Fraction(i - 3 * j + t, 1 + (i + j + t) % 5) for j in range(4)] for i in range(4)],
        )
        for t in range(5)
    ]
    calls = []
    unscaled = matrix._unscaled
    monkeypatch.setattr(matrix, "_unscaled", lambda v, d: calls.append(v) or unscaled(v, d))
    got = mat_prod(kind, 4, factors)
    assert len(calls) == 16
    del calls[:]
    assert_identical(got, functools.reduce(mat_mul, factors))
    assert len(calls) == 4 * 16
