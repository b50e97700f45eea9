"""The facts a Matrix records about its entries: has_inf, all_int, den.

They are set once, by the walk in `__post_init__` or by `matrix._built`
where the library knows them, and they must always equal what a fresh walk
finds (`conftest.fresh_facts`, which also checks every matrix built in this
module and in the matmul, elementwise and n-factor oracle tests).  The
cases here are the ones a walk or a shortcut can get wrong: copies,
`Fraction(n, 1)` entries, an infinity only in the last row, duals,
identities and neutral matrices built without the walk, and matrices that
keep their powers.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from conftest import fresh_facts, stored_facts
from tropmarg import matrix
from tropmarg.marginal import _transpose, residual_left, residual_right
from tropmarg.matrix import (
    Matrix,
    dual,
    identity,
    make_matrix,
    mat_add,
    mat_mul,
    mat_pow,
    neutral_matrix,
    powers,
    scalar_mul,
)
from tropmarg.semiring import NEG_INF, POS_INF, SemiringKind
from tropmarg.wire import _rows_out, encode_matrix

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS
HALF = Fraction(1, 2)


def assert_exact(m: Matrix, want: tuple) -> None:
    assert stored_facts(m) == fresh_facts(m) == want


def test_walk_records_each_fact():
    assert_exact(make_matrix(MIN, [[1, 2], [3, 4]]), (False, True, 1))
    assert_exact(make_matrix(MIN, [[HALF, 2], [Fraction(1, 3), 4]]), (False, False, 6))
    assert_exact(make_matrix(MAX, [[NEG_INF, 2], [3, Fraction(5, 4)]]), (True, False, 4))
    assert_exact(identity(MIN, 1), (False, True, 1))
    assert_exact(identity(MIN, 3), (True, False, 1))


@pytest.mark.parametrize("kind", [MIN, MAX])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_and_neutral_matrix_record_their_facts(kind, n):
    # both are built without the walk, from facts known in advance
    assert_exact(identity(kind, n), (n > 1, n == 1, 1))
    assert_exact(neutral_matrix(kind, n), (True, False, 1))
    for build in (identity, neutral_matrix):
        with pytest.raises(ValueError, match="empty"):
            build(kind, 0)


@pytest.mark.parametrize("kind, o", [(MIN, POS_INF), (MAX, NEG_INF)])
def test_infinity_only_in_the_last_row(kind, o):
    for m in (Matrix(kind, ((0, 1), (2, o))), Matrix(kind, ((0, 1), (o, 3)))):
        assert_exact(m, (True, False, 1))
        assert not m.is_finite()
        with pytest.raises(ValueError, match="finite"):
            residual_right(m)


def test_fraction_with_denominator_one_is_not_an_int():
    m = Matrix(MIN, ((Fraction(2, 1), 3), (0, 1)))
    assert_exact(m, (False, False, 1))
    assert b'"2/1"' in encode_matrix(m)
    assert_exact(mat_mul(m, identity(MIN, 2)), (False, False, 1))
    ints = make_matrix(MIN, [[0, 1], [1, 0]])
    for got in (mat_mul(m, ints), mat_mul(ints, m), mat_add(m, ints), scalar_mul(1, m)):
        assert_exact(got, fresh_facts(got))


def test_dual_of_fraction_one_entries_is_all_int():
    m = Matrix(MIN, ((Fraction(2, 1), 3), (0, Fraction(-1, 1))))
    assert_exact(dual(m), (False, True, 1))
    assert dual(m).rows == ((-2, -3), (0, 1))
    assert_exact(dual(Matrix(MAX, ((Fraction(2, 1), NEG_INF), (0, 1)))), (True, False, 1))
    assert_exact(dual(make_matrix(MIN, [[HALF, POS_INF], [0, 1]])), (True, False, 2))


def test_transpose_keeps_the_facts():
    for m in (
        make_matrix(MIN, [[1, 2], [3, 4]]),
        make_matrix(MIN, [[HALF, 2], [POS_INF, 4]]),
        Matrix(MAX, ((Fraction(2, 1), 3), (NEG_INF, 1))),
    ):
        assert_exact(_transpose(m), stored_facts(m))


def test_replace_walks_the_new_rows():
    replace = dataclasses.replace
    m = make_matrix(MIN, [[1, 2], [3, 4]])
    assert_exact(replace(m, rows=((POS_INF, HALF), (0, Fraction(1, 3)))), (True, False, 6))
    holed = make_matrix(MAX, [[NEG_INF, HALF], [0, 1]])
    assert_exact(replace(holed, rows=((1, 2), (3, 4))), (False, True, 1))
    assert_exact(replace(holed, kind=MIN, rows=((1, 2), (3, POS_INF))), (True, False, 1))


def _pickled(m):
    return pickle.loads(pickle.dumps(m))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled])
def test_copies_keep_exact_facts(clone):
    for m in (
        make_matrix(MIN, [[1, 2], [3, 4]]),
        make_matrix(MAX, [[NEG_INF, HALF], [0, Fraction(1, 3)]]),
        Matrix(MIN, ((Fraction(2, 1), 3), (0, 1))),
        mat_mul(make_matrix(MIN, [[1, 2], [3, 4]]), make_matrix(MIN, [[0, 1], [1, 0]])),
    ):
        c = clone(m)
        assert c == m and hash(c) == hash(m) and repr(c) == repr(m)
        assert_exact(c, stored_facts(m))


def test_powers_are_formed_once_and_kept_out_of_eq_hash_and_repr(monkeypatch):
    a = make_matrix(MAX, [[0, 3, -1], [HALF, 1, 2], [-2, 0, Fraction(1, 3)]])
    plain = make_matrix(MAX, [[0, 3, -1], [HALF, 1, 2], [-2, 0, Fraction(1, 3)]])
    products = []

    def counted(x, y):
        products.append(None)
        return mat_mul(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(matrix, "mat_mul", counted)
        powers(a, 2)
        powers(a, 4)
        powers(a, 3)
        powers(a, 4)
    assert len(products) == 3
    two = powers(a, 2)
    assert two == [a, mat_mul(a, a)]
    assert powers(a, 0) == [] and powers(a, 1) == [a]
    four = powers(a, 4)
    assert four == [mat_pow(a, e) for e in range(1, 5)]
    assert four[:2] == two and four[1] is two[1]
    # a longer list replaces the kept one: a list handed out earlier is as it was
    assert len(two) == 2
    assert a == plain and hash(a) == hash(plain) and repr(a) == repr(plain)
    with pytest.raises(ValueError, match="negative"):
        powers(a, -1)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled])
def test_copies_of_a_matrix_with_kept_powers(clone):
    for m in (
        make_matrix(MIN, [[1, 2], [3, 4]]),
        make_matrix(MAX, [[NEG_INF, HALF], [0, Fraction(1, 3)]]),
    ):
        kept = powers(m, 3)
        c = clone(m)
        assert c == m and hash(c) == hash(m) and repr(c) == repr(m)
        assert_exact(c, stored_facts(m))
        assert powers(c, 3) == kept
        for p in powers(c, 3):
            assert_exact(p, fresh_facts(p))


def test_replace_carries_no_stale_powers():
    replace = dataclasses.replace
    m = make_matrix(MIN, [[1, 2], [3, 4]])
    powers(m, 3)
    other = replace(m, rows=((0, HALF), (POS_INF, 1)))
    assert_exact(other, (True, False, 2))
    assert powers(other, 3) == [mat_pow(other, e) for e in range(1, 4)]
    assert powers(other, 3) != powers(m, 3)
    assert powers(replace(m), 3) == powers(m, 3)


def test_infinities_survive_copies_as_the_singletons():
    for o in (POS_INF, NEG_INF):
        assert copy.copy(o) is o
        assert copy.deepcopy(o) is o
        assert pickle.loads(pickle.dumps(o)) is o


def test_facts_stay_out_of_eq_hash_and_repr():
    a = Matrix(MIN, ((Fraction(2, 1),),))
    b = Matrix(MIN, ((2,),))
    assert stored_facts(a) != stored_facts(b)
    assert a == b and hash(a) == hash(b)
    assert "all_int" not in repr(a) and "den" not in repr(a)


def test_library_ops_build_exact_facts():
    # every matrix built here is also checked by conftest's recorder
    ints = make_matrix(MIN, [[1, 2, 0], [3, 4, 5], [0, -1, 2]])
    fracs = make_matrix(MIN, [[HALF, 2, 0], [3, Fraction(4, 3), 5], [0, -1, 2]])
    holed = make_matrix(MIN, [[1, POS_INF, 0], [3, 4, 5], [0, -1, POS_INF]])
    for a in (ints, fracs, holed):
        for b in (ints, fracs, holed):
            assert_exact(mat_mul(a, b), fresh_facts(mat_mul(a, b)))
            assert_exact(mat_add(a, b), fresh_facts(mat_add(a, b)))
        assert_exact(scalar_mul(2, a), fresh_facts(scalar_mul(2, a)))
        assert_exact(scalar_mul(HALF, a), fresh_facts(scalar_mul(HALF, a)))
    for a in (ints, fracs):
        for m in (a, dual(a)):
            assert_exact(residual_right(m), fresh_facts(residual_right(m)))
            assert_exact(residual_left(m), fresh_facts(residual_left(m)))


def test_all_int_rows_go_to_json_as_they_are():
    m = make_matrix(MIN, [[1, 2], [3, 4]])
    assert _rows_out(m) is m.rows
    assert encode_matrix(m) == b'{"kind":"min-plus","rows":[[1,2],[3,4]],"type":"matrix"}\n'
    assert _rows_out(make_matrix(MIN, [[1, HALF], [POS_INF, 4]])) == [[1, "1/2"], ["inf", 4]]


@pytest.mark.parametrize("junk", [1.5, True, "3", None])
def test_entries_must_be_exact_scalars(junk):
    with pytest.raises(TypeError, match="not an exact scalar"):
        Matrix(MIN, ((0, 1), (2, junk)))


def test_the_other_infinity_is_still_rejected():
    with pytest.raises(ValueError, match="not allowed"):
        Matrix(MIN, ((0, 1), (2, NEG_INF)))
    with pytest.raises(ValueError, match="not allowed"):
        Matrix(MAX, ((0, POS_INF), (2, 3)))


class _Count(int):
    """An int subclass, as a caller's own int type would be."""


def test_int_subclass_entries_become_plain_ints():
    m = make_matrix(MIN, [[_Count(1), 2], [3, _Count(-4)]])
    assert_exact(m, (False, True, 1))
    assert all(type(x) is int for row in m.rows for x in row)
    assert m == make_matrix(MIN, [[1, 2], [3, -4]])
    assert encode_matrix(m) == b'{"kind":"min-plus","rows":[[1,2],[3,-4]],"type":"matrix"}\n'
    with pytest.raises(TypeError, match="not an exact scalar"):
        Matrix(MIN, ((_Count(1), 2), (3, 4)))
