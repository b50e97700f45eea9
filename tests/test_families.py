import random
from fractions import Fraction

import pytest

from tropmarg.families import (
    CirculantFamily,
    JonesDeformFamily,
    LdpFamily,
    LowerSCirculantFamily,
    PolyFamily,
    UpperTCirculantFamily,
    commute_check,
    deform,
    is_jones,
    is_ldp,
    make_circulant,
    make_lower_s_circulant,
    make_upper_t_circulant,
    sample_family_member,
    sample_jones,
    sample_ldp,
)
from tropmarg.fixtures import JONES_BASE
from tropmarg.matrix import make_matrix
from tropmarg.semiring import SemiringKind

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS


def test_circulant_shape():
    c = make_circulant(MIN, [1, 2, 3])
    assert c.rows == ((1, 2, 3), (3, 1, 2), (2, 3, 1))
    with pytest.raises(ValueError):
        make_circulant(MIN, [])


def test_upper_t_scales_above_diagonal():
    c = make_upper_t_circulant(MIN, 10, [1, 2, 3])
    assert c.rows == ((1, 12, 13), (3, 1, 12), (2, 3, 1))


def test_lower_s_scales_below_diagonal():
    c = make_lower_s_circulant(MAX, -4, [1, 2, 3])
    assert c.rows == ((1, 2, 3), (-1, 1, 2), (-2, -1, 1))


def test_is_jones_examples():
    assert is_jones(JONES_BASE)
    # 0 + 5 = 5 exceeds 0 + 0 at (i, j, k) = (1, 2, 1)
    bad = make_matrix(MAX, [[0, 5], [0, 0]])
    assert not is_jones(bad)
    with pytest.raises(TypeError):
        is_jones(make_matrix(MIN, [[0]]))


def test_is_jones_uses_additive_products_not_entry_maxima():
    # This matrix satisfies the defining inequalities when both sides are
    # read as entrywise maxima, but a12 + a23 = 5 > a13 + a22 = -1, and its
    # alpha = 0 and alpha = 1/6 deformations genuinely do not commute.
    # Membership must therefore use the product reading.
    trap = make_matrix(MAX, [[5, 4, -5], [4, 4, 1], [-5, -2, -5]])
    assert not is_jones(trap)


class TestDeform:
    def test_half_deformation_of_base(self):
        got = deform(JONES_BASE, Fraction(1, 2))
        want = make_matrix(
            MAX,
            [[1, Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]],
        )
        assert got == want

    def test_endpoint_is_identity_map(self):
        assert deform(JONES_BASE, 1) == JONES_BASE

    def test_zero_endpoint_kills_diagonal(self):
        got = deform(JONES_BASE, 0)
        assert got.rows[0][0] == 0 and got.rows[1][1] == 0

    def test_alpha_validation(self):
        with pytest.raises(TypeError):
            deform(JONES_BASE, 0.5)
        with pytest.raises(ValueError):
            deform(JONES_BASE, 2)

    def test_requires_jones_base(self):
        with pytest.raises(ValueError):
            deform(make_matrix(MAX, [[0, 5], [0, 0]]), Fraction(1, 2))

    def test_deformations_commute(self):
        rng = random.Random(7)
        base = sample_jones(3, -5, 5, rng)
        xs = [deform(base, Fraction(n, 6)) for n in range(7)]
        for a in xs:
            for b in xs:
                assert commute_check(a, b)


def test_ldp_membership_and_sampler():
    rng = random.Random(3)
    m = sample_ldp(5, -2, 4, rng)
    assert is_ldp(m, 5, -2)
    assert all(m.rows[i][i] == -2 for i in range(4))
    assert all(
        5 <= m.rows[i][j] <= 10 for i in range(4) for j in range(4) if i != j
    )
    assert not is_ldp(m, 6, -2)


def test_ldp_parameter_contract():
    m = make_matrix(MAX, [[0, 1], [1, 0]])
    with pytest.raises(TypeError):
        is_ldp(m, 1, 0)
    # is_ldp takes the family's own int parameters, with its messages
    m = make_matrix(MIN, [[0, 1], [1, 0]])
    with pytest.raises(TypeError, match="LdpFamily.r must be an int"):
        is_ldp(m, Fraction(1, 2), 0)
    with pytest.raises(ValueError, match="LdpFamily.r must be >= 0"):
        is_ldp(m, -1, 0)
    with pytest.raises(ValueError, match="LdpFamily.k must be <= 0"):
        is_ldp(m, 1, 1)
    with pytest.raises(ValueError):
        LdpFamily(dim=3, r=-1, k=0)
    with pytest.raises(ValueError):
        LdpFamily(dim=3, r=1, k=1)


def test_sample_jones_always_jones():
    rng = random.Random(41)
    for _ in range(50):
        assert is_jones(sample_jones(4, -9, 9, rng))


def test_family_spec_validation():
    with pytest.raises(ValueError):
        PolyFamily(base=JONES_BASE, max_degree=-1, coeff_lo=0, coeff_hi=1)
    with pytest.raises(ValueError):
        JonesDeformFamily(base=make_matrix(MAX, [[0, 5], [0, 0]]))
    with pytest.raises(ValueError):
        JonesDeformFamily(base=JONES_BASE, alpha_lo=Fraction(3, 4), alpha_hi=Fraction(1, 2))


def test_family_kind_and_dim():
    specs = {
        PolyFamily(JONES_BASE, 2, -3, 3): (MAX, 2),
        CirculantFamily(MIN, 4, -3, 3): (MIN, 4),
        UpperTCirculantFamily(MIN, 3, 7, -3, 3): (MIN, 3),
        LowerSCirculantFamily(MAX, 3, -7, -3, 3): (MAX, 3),
        JonesDeformFamily(JONES_BASE): (MAX, 2),
        LdpFamily(5, 10, -1): (MIN, 5),
    }
    for spec, (kind, dim) in specs.items():
        assert spec.kind is kind
        assert spec.dim == dim


@pytest.mark.parametrize(
    "spec",
    [
        PolyFamily(make_matrix(MIN, [[0, 3, 1], [2, 0, 4], [1, 1, 0]]), 3, -5, 5),
        CirculantFamily(MIN, 4, -6, 6),
        CirculantFamily(MAX, 4, -6, 6),
        UpperTCirculantFamily(MIN, 3, 9, -6, 6),
        LowerSCirculantFamily(MAX, 3, -9, -6, 6),
        JonesDeformFamily(JONES_BASE),
        LdpFamily(4, 8, -3),
    ],
    ids=["poly", "circ-min", "circ-max", "upper-t", "lower-s", "jones", "ldp"],
)
def test_members_of_one_family_commute(spec):
    rng = random.Random(1234)
    members = [sample_family_member(spec, rng) for _ in range(8)]
    for a in members:
        for b in members:
            assert commute_check(a, b)


def test_distinct_t_circulants_need_not_commute():
    # products differ at entry (1, 2): min(1+4, 1+1, 1+0) = 1 one way,
    # min(1+1, 4+0, 4+0) = 2 the other
    a = make_upper_t_circulant(MIN, 1, [0, 0, 0])
    b = make_upper_t_circulant(MIN, 4, [1, 0, 0])
    assert not commute_check(a, b)
