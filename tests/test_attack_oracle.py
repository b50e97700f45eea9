"""The decomposition attack by residuation against the term-by-term one.

The reference below is the earlier `attack_decomposition` of
`tropmarg.protocols`, kept verbatim: every conjugate aᵢ⊗W⊗bⱼ formed, one
`scalar_mul` per term and a `mat_add` chain, both for the reconstruction
of u and for the key candidate ⊕_ij z_ij ⊗ aᵢ⊗V⊗bⱼ.  The attack under test
forms no conjugate: z_ij comes from the left residual of u by aᵢ against W⊗bⱼ,
an infinite conjugate is found from the bases' all-infinite lines, and both sums
are ⊕ᵢ aᵢ ⊗ (⊕ⱼ z_ij ⊗ M⊗bⱼ).  Both must give the same candidate and z
table (compared by `repr` of the entries, so an int and a `Fraction(n, 1)`
differ), the same `NoDecomposition.z_table`, or the same `ValueError`
message.  Cases run over both semirings and dims 1-6: power bases of
degree 0-4, with int bases and `Fraction`-valued Jones deformations, and
bases of 1-4 matrices with or without I and with infinite entries, on
published values that decompose (from `run_sidelnikov`) and on perturbed
ones.  The products the attack forms are counted, not timed.

The earlier `deform` is kept verbatim too: the public `deform` and the
family sampler's unchecked `_deform` must match it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg.families import (
    JonesDeformFamily,
    PolyFamily,
    _deform,
    deform,
    is_jones,
    sample_family_member,
    sample_jones,
)
from pair_reference import min_plus_maps
from tropmarg import protocols
from tropmarg.matrix import (
    Matrix,
    dual,
    identity,
    make_matrix,
    mat_add,
    mat_mul,
    mat_pow,
    scalar_mul,
)
from tropmarg.protocols import (
    NoDecomposition,
    ProtocolParams,
    attack_decomposition,
    power_basis,
    run_sidelnikov,
)
from tropmarg.semiring import SemiringKind, add_neutral, as_scalar, is_finite

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS

# ---------------------------------------------------------------------------
# References (verbatim).


def ref_attack_decomposition(w, u, v, left_basis, right_basis):
    kind, dim = w.kind, w.dim
    if not left_basis or not right_basis:
        raise ValueError("bases must be nonempty")
    for m in (w, u, v, *left_basis, *right_basis):
        if m.kind is not kind or m.dim != dim:
            raise ValueError("attack inputs must share kind and dimension")
    for m in (w, u, v):
        if m.has_inf:
            raise ValueError("attack requires finite public values")
    _, flip = min_plus_maps(kind)
    e = identity(kind, dim)

    def times(x: Matrix, y: Matrix) -> Matrix:
        return y if x == e else x if y == e else mat_mul(x, y)

    conjugates = [
        [times(aw, b) for b in right_basis] for aw in (times(a, w) for a in left_basis)
    ]
    for row in conjugates:
        for t in row:
            if t.has_inf:
                raise ValueError("a basis conjugate has infinite entries")

    def extreme(t: Matrix):
        diffs = (as_scalar(x - y) for ur, tr in zip(u.rows, t.rows) for x, y in zip(ur, tr))
        return flip(max(map(flip, diffs)))

    z_table = tuple(tuple(extreme(t) for t in row) for row in conjugates)
    recon = None
    for i, row in enumerate(conjugates):
        for j, t in enumerate(row):
            term = scalar_mul(z_table[i][j], t)
            recon = term if recon is None else mat_add(recon, term)
    if recon != u:
        raise NoDecomposition(z_table)
    candidate = None
    for i, a in enumerate(left_basis):
        av = times(a, v)
        for j, b in enumerate(right_basis):
            term = scalar_mul(z_table[i][j], times(av, b))
            candidate = term if candidate is None else mat_add(candidate, term)
    return candidate, z_table


def ref_deform(a: Matrix, alpha) -> Matrix:
    if isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool):
        alpha = Fraction(alpha)
    else:
        raise TypeError("alpha must be an exact rational")
    if not (0 <= alpha <= 1):
        raise ValueError("alpha outside [0, 1]")
    if not is_jones(a):
        raise ValueError("deformation requires a Jones matrix")
    n = a.dim
    diag = [a.rows[i][i] for i in range(n)]
    if not all(is_finite(d) for d in diag):
        raise ValueError("deformation requires finite diagonal entries")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            m = max(diag[i], diag[j])
            row.append(a.rows[i][j] + as_scalar((alpha - 1) * m))
        out.append(tuple(row))
    return Matrix(a.kind, tuple(out))


# ---------------------------------------------------------------------------
# Outcomes


def _entries(m: Matrix):
    return m.kind, repr(m.rows)


def outcome(attack, *args):
    try:
        candidate, z_table = attack(*args)
    except NoDecomposition as e:
        return ("no-decomposition", repr(e.z_table))
    except ValueError as e:
        return ("raise", str(e))
    return ("ok", _entries(candidate), repr(z_table))


# ---------------------------------------------------------------------------
# Strategies

ALPHAS = st.builds(
    lambda den, num: Fraction(num % (den + 1), den), st.integers(1, 12), st.integers(0, 12)
)


@st.composite
def bases(draw, kind, n):
    """A polynomial family base: ints, ints with one infinite row, or a
    Jones deformation with Fraction entries (its dual over min-plus)."""
    shape = draw(st.sampled_from(["int", "int", "inf-row", "jones"]))
    if shape == "jones":
        jones = sample_jones(n, -9, 9, random.Random(draw(st.integers(0, 2**32))))
        m = deform(jones, draw(ALPHAS))
        return m if kind is MAX else dual(m)
    rows = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    if shape == "inf-row" and n > 1:
        rows[draw(st.integers(0, n - 1))] = [add_neutral(kind)] * n
    return make_matrix(kind, rows)


@st.composite
def attacks(draw):
    kind = draw(st.sampled_from([MIN, MAX]))
    n = draw(st.integers(1, 6))
    left_base, right_base = draw(bases(kind, n)), draw(bases(kind, n))
    w = make_matrix(kind, [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)])
    params = ProtocolParams(
        kind=kind,
        dim=n,
        publics=(w,),
        left_families=(PolyFamily(left_base, draw(st.integers(0, 3)), -5, 5),),
        right_families=(PolyFamily(right_base, draw(st.integers(0, 3)), -5, 5),),
    )
    transcript = run_sidelnikov(params, random.Random(draw(st.integers(0, 2**32))))
    u, v = transcript.message("u"), transcript.message("v")
    if draw(st.booleans()):
        rows = [list(row) for row in u.rows]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        bump = draw(st.sampled_from([1, -1, 3, Fraction(1, 2), add_neutral(kind)]))
        rows[i][j] = bump if not is_finite(bump) else rows[i][j] + bump
        u = make_matrix(kind, rows)
    left = power_basis(left_base, draw(st.integers(0, 4)))
    right = power_basis(right_base, draw(st.integers(0, 4)))
    return w, u, v, left, right


@st.composite
def basis_element(draw, kind, base):
    """A power of the family base, ints, or ints with one infinite entry,
    an infinite row or an infinite column."""
    n = base.dim
    shape = draw(st.sampled_from(["power", "power", "int", "inf-entry", "inf-row", "inf-col"]))
    if shape == "power":
        return mat_pow(base, draw(st.integers(1, 3)))
    o = add_neutral(kind)
    rows = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if shape == "inf-entry":
        rows[i][j] = o
    elif shape == "inf-row":
        rows[i] = [o] * n
    elif shape == "inf-col":
        for row in rows:
            row[j] = o
    return make_matrix(kind, rows)


@st.composite
def general_bases(draw, kind, base):
    """1-4 matrices, the identity at any position or absent."""
    count = draw(st.integers(1, 4))
    with_identity = draw(st.booleans())
    basis = [draw(basis_element(kind, base)) for _ in range(count - with_identity)]
    if with_identity:
        basis.insert(draw(st.integers(0, count - 1)), identity(kind, base.dim))
    return basis


@st.composite
def general_attacks(draw):
    """The published values of attacks(), over general bases."""
    w, u, v, left, right = draw(attacks())
    return w, u, v, draw(general_bases(w.kind, left[-1])), draw(general_bases(w.kind, right[-1]))


# ---------------------------------------------------------------------------
# Tests


@settings(max_examples=250, deadline=None, derandomize=True)
@given(attacks())
def test_attack_matches_term_by_term_reference(case):
    assert outcome(attack_decomposition, *case) == outcome(ref_attack_decomposition, *case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(general_attacks())
def test_attack_over_general_bases_matches_reference(case):
    assert outcome(attack_decomposition, *case) == outcome(ref_attack_decomposition, *case)


def test_outcomes_cover_each_kind():
    # the strategy above reaches all three outcomes; pin one of each here
    kind, n = MIN, 3
    base = make_matrix(kind, [[0, 2, 5], [1, 0, 3], [4, 2, 0]])
    w = make_matrix(kind, [[1, 4, 2], [0, 3, 5], [2, 2, 1]])
    fam = PolyFamily(base, 2, -3, 3)
    params = ProtocolParams(
        kind=kind, dim=n, publics=(w,), left_families=(fam,), right_families=(fam,)
    )
    t = run_sidelnikov(params, random.Random(7))
    u, v = t.message("u"), t.message("v")
    basis = power_basis(base, 2)
    got = outcome(attack_decomposition, w, u, v, basis, basis)
    assert got[0] == "ok"
    assert got == outcome(ref_attack_decomposition, w, u, v, basis, basis)
    candidate, _ = attack_decomposition(w, u, v, basis, basis)
    assert candidate == t.key_a
    rows = [list(row) for row in u.rows]
    rows[0][0] -= 1
    bumped = make_matrix(kind, rows)
    got = outcome(attack_decomposition, w, bumped, v, basis, basis)
    assert got[0] == "no-decomposition"
    assert got == outcome(ref_attack_decomposition, w, bumped, v, basis, basis)
    assert outcome(attack_decomposition, w, u, v, [], basis) == ("raise", "bases must be nonempty")
    # an infinite row makes its conjugates infinite; one infinite entry does not
    o = add_neutral(kind)
    inf_row = [make_matrix(kind, [[0, 2, 5], [o, o, o], [4, 2, 0]]), *basis]
    inf_entry = [make_matrix(kind, [[0, o, 5], [1, 0, 3], [4, 2, 0]]), *basis]
    got = outcome(attack_decomposition, w, u, v, inf_row, basis)
    assert got == ("raise", "a basis conjugate has infinite entries")
    assert got == outcome(ref_attack_decomposition, w, u, v, inf_row, basis)
    got = outcome(attack_decomposition, w, u, v, basis, inf_entry)
    assert got[0] == "ok"
    assert got == outcome(ref_attack_decomposition, w, u, v, basis, inf_entry)


# ---------------------------------------------------------------------------
# Product counts over degree-D power bases: 4D when u decomposes, 2D when
# it does not, none when a conjugate holds the infinity (the bases alone
# show it)


def counted_attack(monkeypatch, *args) -> tuple[str, int]:
    calls = []

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)

    with monkeypatch.context() as patched:
        patched.setattr(protocols, "mat_mul", counted)
        got = outcome(attack_decomposition, *args)
    return got[0] if got[0] != "raise" else got[1], len(calls)


def sidelnikov_case(kind, n, degree, seed, inf_row=False):
    rng = random.Random(seed)
    o = add_neutral(kind)
    square = lambda: [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    left_rows, right_rows = square(), square()
    if inf_row:
        left_rows[0] = [o] * n
    left, right = make_matrix(kind, left_rows), make_matrix(kind, right_rows)
    w = make_matrix(kind, square())
    params = ProtocolParams(
        kind=kind,
        dim=n,
        publics=(w,),
        left_families=(PolyFamily(left, degree, -5, 5),),
        right_families=(PolyFamily(right, degree, -5, 5),),
    )
    t = run_sidelnikov(params, random.Random(seed))
    bases = power_basis(left, degree), power_basis(right, degree)
    return t, (w, t.message("u"), t.message("v"), *bases)


@pytest.mark.parametrize("kind", [MIN, MAX])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_product_counts_over_power_bases(monkeypatch, kind, degree):
    t, (w, u, v, left, right) = sidelnikov_case(kind, 3, degree, seed=degree)
    assert counted_attack(monkeypatch, w, u, v, left, right) == ("ok", 4 * degree)
    candidate, _ = attack_decomposition(w, u, v, left, right)
    assert candidate == t.key_a
    # one entry pushed far past the sum of every term: no decomposition
    rows = [list(row) for row in u.rows]
    rows[0][0] += -10**6 if kind is MIN else 10**6
    off = make_matrix(kind, rows)
    assert counted_attack(monkeypatch, w, off, v, left, right) == ("no-decomposition", 2 * degree)
    if degree:
        _, (w, u, v, left, right) = sidelnikov_case(kind, 3, degree, seed=degree, inf_row=True)
        refused = counted_attack(monkeypatch, w, u, v, left, right)
        assert refused == ("a basis conjugate has infinite entries", 0)


def test_degree_64_attack_forms_256_products(monkeypatch):
    t, case = sidelnikov_case(MIN, 16, 64, seed=64)
    assert counted_attack(monkeypatch, *case) == ("ok", 256)
    candidate, _ = attack_decomposition(*case)
    assert candidate == t.key_a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 2**32), ALPHAS)
def test_deform_matches_reference(n, seed, alpha):
    base = sample_jones(n, -12, 12, random.Random(seed))
    want = repr(ref_deform(base, alpha).rows)
    assert repr(deform(base, alpha).rows) == want
    assert repr(_deform(base, alpha).rows) == want


def test_family_draws_are_checked_deformations():
    family = JonesDeformFamily(sample_jones(4, -9, 9, random.Random(3)))
    for seed in range(20):
        got = sample_family_member(family, random.Random(seed))
        rng = random.Random(seed)
        den = rng.randint(1, family.max_denominator)
        assert got == ref_deform(family.base, Fraction(rng.randint(0, den), den))


def test_deform_still_checks_its_base_and_alpha():
    jones = sample_jones(3, -9, 9, random.Random(1))
    not_jones = make_matrix(MAX, [[0, 5], [0, 0]])
    assert not is_jones(not_jones)
    with pytest.raises(ValueError, match="requires a Jones matrix"):
        deform(not_jones, Fraction(1, 2))
    for alpha in (Fraction(-1, 3), Fraction(4, 3), -1, 2):
        with pytest.raises(ValueError, match=r"alpha outside \[0, 1\]"):
            deform(jones, alpha)
    for alpha in (0.5, True, "1/2"):
        with pytest.raises(TypeError, match="exact rational"):
            deform(jones, alpha)


def test_jones_family_checks_its_alpha_range_once():
    jones = sample_jones(3, -9, 9, random.Random(1))
    with pytest.raises(ValueError, match="alpha range"):
        JonesDeformFamily(jones, alpha_lo=Fraction(3, 4), alpha_hi=Fraction(1, 2))
    with pytest.raises(ValueError, match="alpha range"):
        JonesDeformFamily(jones, alpha_hi=Fraction(3, 2))
    with pytest.raises(TypeError, match="exact rational"):
        JonesDeformFamily(jones, alpha_lo=0.5)
    with pytest.raises(ValueError, match="Jones matrix"):
        JonesDeformFamily(make_matrix(MAX, [[0, 5], [0, 0]]))
