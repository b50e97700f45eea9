"""Constructors, predicates, and samplers for pairwise-commuting matrix families.

Six families are supported, each closed under mutual commutation:

* tropical polynomials of one fixed base matrix,
* circulants of one dimension,
* upper-t-circulants sharing the same t,
* lower-s-circulants sharing the same s,
* deformations of one fixed Jones matrix (max-plus),
* Linde-de la Puente style matrices: constant diagonal k <= 0 and
  off-diagonal entries in [r, 2r] with r >= 0 (min-plus; the analogous
  max-plus statement fails for this parameter contract, so it is rejected).

A FamilySpec value identifies one such family together with the data a
sampler needs to draw a random member from it.  Each spec class is the one
place that knows its family: its wire `tag`, its `kind` and `dim`, and its
whole contract, checked when it is built, so that every spec that
constructs can be drawn from, written and read back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

from .matrix import Matrix, _lifted, make_matrix, make_poly, mat_mul, poly_eval
from .semiring import (
    Scalar,
    SelfCheckError,
    SemiringKind,
    add_neutral,
    as_scalar,
    is_finite,
    require_int,
)


def make_circulant(kind: SemiringKind, values) -> Matrix:
    """Circulant whose first row is `values`; each later row is the previous
    one shifted cyclically one step right."""
    return _circulant(kind, values, None, None)


def make_upper_t_circulant(kind: SemiringKind, t, values) -> Matrix:
    """Circulant with every entry strictly above the diagonal scaled by t."""
    return _circulant(kind, values, as_scalar(t), None)


def make_lower_s_circulant(kind: SemiringKind, s, values) -> Matrix:
    """Circulant with every entry strictly below the diagonal scaled by s."""
    return _circulant(kind, values, None, as_scalar(s))


def _circulant(kind: SemiringKind, values, above, below) -> Matrix:
    """The circulant of `values`, with the triangle above the diagonal scaled
    by `above` and the one below it by `below` where those are given."""
    vals = [as_scalar(v) for v in values]
    n = len(vals)
    if n == 0:
        raise ValueError("circulant needs at least one value")
    rows = []
    for i in range(n):
        row = vals[n - i:] + vals[:n - i]
        if above is not None:
            row[i + 1:] = [above + v for v in row[i + 1:]]
        if below is not None:
            row[:i] = [below + v for v in row[:i]]
        rows.append(tuple(row))
    return Matrix(kind, tuple(rows))


def is_jones(a: Matrix) -> bool:
    """Max-plus test: a_ij + a_jk <= a_ik + a_jj for all i, j, k.

    The inequalities must hold with plain addition (the semiring product).
    Reading them with entrywise max instead admits matrices whose
    deformations do not commute, e.g. [[5, 4, -5], [4, 4, 1], [-5, -2, -5]],
    so that reading is rejected here.
    """
    if a.kind is not SemiringKind.MAX_PLUS:
        raise TypeError("Jones matrices live over max-plus")
    n = a.dim
    r = a.rows
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if r[i][j] + r[j][k] > r[i][k] + r[j][j]:
                    return False
    return True


def deform(a: Matrix, alpha) -> Matrix:
    """Deformation of a Jones matrix: b_ij = a_ij + (alpha - 1) * max(a_ii, a_jj).

    alpha must be a rational in [0, 1].  Deformations of one base commute
    with each other; deform(a, 1) is a itself.
    """
    alpha = _exact_alpha(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError("alpha outside [0, 1]")
    if not is_jones(a):
        raise ValueError("deformation requires a Jones matrix")
    _require_finite_diagonal(a)
    return _deform(a, alpha)


def _require_finite_diagonal(a: Matrix) -> None:
    """Checked once per base (deform, JonesDeformFamily), not per member."""
    if not all(is_finite(row[i]) for i, row in enumerate(a.rows)):
        raise ValueError("deformation requires finite diagonal entries")


def _exact_alpha(alpha) -> Fraction:
    if isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool):
        return Fraction(alpha)
    raise TypeError("alpha must be an exact rational")


def _deform(a: Matrix, alpha: Fraction) -> Matrix:
    """deform() for a Jones base of finite diagonal and an exact alpha in
    [0, 1], unchecked.  The shift (alpha - 1) * max(a_ii, a_jj) is the shift
    of the larger diagonal entry, so it is computed once per entry."""
    diag = [row[i] for i, row in enumerate(a.rows)]
    shift = [as_scalar((alpha - 1) * d) for d in diag]
    return Matrix(
        a.kind,
        tuple(
            tuple(
                x + (shift[j] if diag[i] <= diag[j] else shift[i])
                for j, x in enumerate(row)
            )
            for i, row in enumerate(a.rows)
        ),
    )


def is_ldp(a: Matrix, r: int, k: int) -> bool:
    """Constant diagonal k <= 0, off-diagonal entries within [r, 2r], r >= 0,
    over min-plus; r and k are checked as LdpFamily checks them."""
    if a.kind is not SemiringKind.MIN_PLUS:
        raise TypeError("this family's commutation contract holds over min-plus only")
    LdpFamily(a.dim, r, k)
    return all(
        x == k if i == j else r <= x <= 2 * r
        for i, row in enumerate(a.rows)
        for j, x in enumerate(row)
    )


def sample_ldp(r: int, k: int, dim: int, rng: random.Random) -> Matrix:
    """Random member: diagonal pinned to k, off-diagonals uniform in [r, 2r]."""
    LdpFamily(dim, r, k)  # checks the parameters
    rows = tuple(
        tuple(k if i == j else rng.randint(r, 2 * r) for j in range(dim))
        for i in range(dim)
    )
    return make_matrix(SemiringKind.MIN_PLUS, rows)


def commute_check(a: Matrix, b: Matrix) -> bool:
    """Whether a ⊗ b == b ⊗ a, formed and compared on the operands lifted
    to ints by their common denominator (scaling by d > 0 keeps equality),
    so no product is unscaled."""
    d = math.lcm(a.den, b.den)
    if d > 1:
        a, b = _lifted(a, d), _lifted(b, d)
    return mat_mul(a, b) == mat_mul(b, a)


# --------------------------------------------------------------------------
# Family specifications and sampling


class _OfBase:
    """A family that lives where its base matrix lives."""

    @property
    def kind(self) -> SemiringKind:
        return self.base.kind

    @property
    def dim(self) -> int:
        return self.base.dim


def _require_matrix(base) -> None:
    if not isinstance(base, Matrix):
        raise TypeError("base must be a Matrix")


# Largest max_degree of a PolyFamily: a few bytes of a params file can name
# any number, and a member of degree D costs the base's powers up to D it
# does not yet keep (at most D - 1 products) plus one k² pass.  The CLI
# defaults, the builtin fixtures and the benchmark use at most degree 3.
MAX_POLY_DEGREE = 64


@dataclass(frozen=True)
class PolyFamily(_OfBase):
    """Tropical polynomials of `base` with degree <= max_degree and integer
    coefficients drawn uniformly from [coeff_lo, coeff_hi]."""

    tag: ClassVar[str] = "poly"

    base: Matrix
    max_degree: int
    coeff_lo: int
    coeff_hi: int

    def __post_init__(self):
        _require_matrix(self.base)
        require_int("PolyFamily.max_degree", self.max_degree, 0, MAX_POLY_DEGREE)
        require_int("PolyFamily.coeff_lo", self.coeff_lo)
        require_int("PolyFamily.coeff_hi", self.coeff_hi, self.coeff_lo)


def _check_circulant(spec, scale: str = "") -> None:
    """A circulant family draws dim entries from lo..hi; a scaled one also
    stores its scale as a canonical scalar, never the dual's neutral."""
    if not isinstance(spec.kind, SemiringKind):
        raise TypeError("kind must be a SemiringKind")
    name = type(spec).__name__
    require_int(f"{name}.dim", spec.dim, 1)
    require_int(f"{name}.lo", spec.lo)
    require_int(f"{name}.hi", spec.hi, spec.lo)
    if scale:
        value = as_scalar(getattr(spec, scale))
        if value is add_neutral(spec.kind.dual):
            raise ValueError(f"{value!r} scale not allowed over {spec.kind}")
        object.__setattr__(spec, scale, value)


@dataclass(frozen=True)
class CirculantFamily:
    tag: ClassVar[str] = "circulant"

    kind: SemiringKind
    dim: int
    lo: int
    hi: int

    def __post_init__(self):
        _check_circulant(self)


@dataclass(frozen=True)
class UpperTCirculantFamily:
    tag: ClassVar[str] = "upper-t"

    kind: SemiringKind
    dim: int
    t: Scalar
    lo: int
    hi: int

    def __post_init__(self):
        _check_circulant(self, "t")


@dataclass(frozen=True)
class LowerSCirculantFamily:
    tag: ClassVar[str] = "lower-s"

    kind: SemiringKind
    dim: int
    s: Scalar
    lo: int
    hi: int

    def __post_init__(self):
        _check_circulant(self, "s")


@dataclass(frozen=True)
class JonesDeformFamily(_OfBase):
    """Deformations of one Jones base; alpha is drawn as a random fraction
    num/den with den uniform in [1, max_denominator] and num in [0, den],
    restricted to [alpha_lo, alpha_hi].  The alphas are stored as Fractions."""

    tag: ClassVar[str] = "jones-deform"

    base: Matrix
    alpha_lo: Fraction = Fraction(0)
    alpha_hi: Fraction = Fraction(1)
    max_denominator: int = 12

    def __post_init__(self):
        _require_matrix(self.base)
        if not is_jones(self.base):
            raise ValueError("base must be a Jones matrix")
        _require_finite_diagonal(self.base)
        for name in ("alpha_lo", "alpha_hi"):
            object.__setattr__(self, name, _exact_alpha(getattr(self, name)))
        if not (0 <= self.alpha_lo <= self.alpha_hi <= 1):
            raise ValueError("alpha range must sit inside [0, 1]")
        require_int("JonesDeformFamily.max_denominator", self.max_denominator, 1)


@dataclass(frozen=True)
class LdpFamily:
    tag: ClassVar[str] = "ldp"
    kind: ClassVar[SemiringKind] = SemiringKind.MIN_PLUS

    dim: int
    r: int
    k: int

    def __post_init__(self):
        require_int("LdpFamily.dim", self.dim, 1)
        require_int("LdpFamily.r", self.r, 0)
        require_int("LdpFamily.k", self.k, hi=0)


FamilySpec = Union[
    PolyFamily, CirculantFamily, UpperTCirculantFamily,
    LowerSCirculantFamily, JonesDeformFamily, LdpFamily,
]


def sample_family_member(spec: FamilySpec, rng: random.Random) -> Matrix:
    """Draw one random family member.

    Members drawn from the same spec always commute pairwise; that is the
    whole point of these families and is covered by property tests.
    """
    if isinstance(spec, PolyFamily):
        deg = rng.randint(0, spec.max_degree)
        coeffs = [rng.randint(spec.coeff_lo, spec.coeff_hi) for _ in range(deg + 1)]
        return poly_eval(make_poly(spec.base.kind, coeffs), spec.base)
    if isinstance(spec, (CirculantFamily, UpperTCirculantFamily, LowerSCirculantFamily)):
        vals = [rng.randint(spec.lo, spec.hi) for _ in range(spec.dim)]
        # the spec stored its scale, if any, as a canonical scalar
        return _circulant(spec.kind, vals, getattr(spec, "t", None), getattr(spec, "s", None))
    if isinstance(spec, JonesDeformFamily):
        den = rng.randint(1, spec.max_denominator)
        lo_num = math.ceil(spec.alpha_lo * den)
        hi_num = math.floor(spec.alpha_hi * den)
        if lo_num > hi_num:
            alpha = spec.alpha_lo
        else:
            alpha = Fraction(rng.randint(lo_num, hi_num), den)
        # the spec checked its base and alpha range once, when it was built
        return _deform(spec.base, alpha)
    if isinstance(spec, LdpFamily):
        return sample_ldp(spec.r, spec.k, spec.dim, rng)
    raise TypeError(f"not a family spec: {spec!r}")


def sample_jones(dim: int, lo: int, hi: int, rng: random.Random) -> Matrix:
    """Random Jones matrix.

    Primary construction: entries u_i + v_j - e_ij, where e is nonnegative
    with zero diagonal and closed under the triangle inequality (a
    shortest-path pass enforces that).  The defining inequalities then
    reduce to exactly e_ik <= e_ij + e_jk, so membership is guaranteed.
    A short rejection loop on freely drawn matrices runs first so that the
    output is not always of the closed-slack shape.
    """
    for _ in range(8):
        m = make_matrix(
            SemiringKind.MAX_PLUS,
            [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)],
        )
        if is_jones(m):
            return m
    half_lo, half_hi = -(-lo // 2), hi // 2
    if half_lo > half_hi:
        half_lo = half_hi = (lo + hi) // 2
    u = [rng.randint(half_lo, half_hi) for _ in range(dim)]
    v = [rng.randint(half_lo, half_hi) for _ in range(dim)]
    spread = max(1, hi - lo)
    e = [
        [0 if i == j else rng.randint(0, spread) for j in range(dim)]
        for i in range(dim)
    ]
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                if e[i][k] + e[k][j] < e[i][j]:
                    e[i][j] = e[i][k] + e[k][j]
    m = make_matrix(
        SemiringKind.MAX_PLUS,
        [[u[i] + v[j] - e[i][j] for j in range(dim)] for i in range(dim)],
    )
    if not is_jones(m):
        raise SelfCheckError("closed-slack construction is not a Jones matrix")
    return m
