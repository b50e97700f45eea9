"""Dense square tropical matrices and polynomials, immutable and exact.

A Matrix pins down its semiring kind; mixing kinds in one operation is a
TypeError, not a silent reinterpretation.  Entries are exact scalars.  A
min-plus matrix may contain +inf (its additive neutral) but never -inf, and
symmetrically for max-plus; the constructor enforces this so that products
can never hit the undefined +inf + -inf case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, neg
from typing import Iterable

from .semiring import (
    NEG_INF,
    POS_INF,
    MUL_NEUTRAL,
    Scalar,
    SemiringKind,
    add_neutral,
    as_scalar,
    require_int,
)


@dataclass(frozen=True)
class Matrix:
    """Square rows of canonical entries: builtin ints, Fractions with
    denominator > 1 and the semiring's infinity.  The one walk, in
    __post_init__, turns Fraction(n, 1) and int subclasses into plain ints
    and sets the fields outside ==, hash and repr once: has_inf (the
    infinity occurs), den (the lcm of the Fraction denominators, 1 if
    none) and all_int, which is not has_inf and den == 1."""

    kind: SemiringKind
    rows: tuple[tuple[Scalar, ...], ...]
    has_inf: bool = field(init=False, repr=False, compare=False)
    all_int: bool = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ValueError("empty matrix")
        if self.kind is SemiringKind.MIN_PLUS:
            o, bad_inf = POS_INF, NEG_INF
        else:
            o, bad_inf = NEG_INF, POS_INF
        has_inf, d, canonical = False, 1, True
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for x in row:
                if type(x) is int:
                    continue
                if x is o:
                    has_inf = True
                elif isinstance(x, Fraction):
                    den = x.denominator
                    if den == 1:
                        canonical = False
                    elif d % den:
                        d = lcm(d, den)
                elif isinstance(x, int) and not isinstance(x, bool):
                    canonical = False
                elif x is bad_inf:
                    raise ValueError(f"{bad_inf!r} entry not allowed over {self.kind}")
                else:
                    raise TypeError(f"not an exact scalar: {x!r}")
        facts = self.__dict__
        if not canonical:
            facts["rows"] = tuple(tuple(map(as_scalar, row)) for row in self.rows)
        facts["has_inf"], facts["den"] = has_inf, d
        facts["all_int"] = not has_inf and d == 1

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple[Scalar, ...]:
        return self.rows[i]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.kind}, [{body}])"


def _built(kind: SemiringKind, rows, has_inf=False, den=1) -> Matrix:
    """Matrix of square rows of canonical entries whose facts the caller
    knows exactly, built without the walk: an all-int finite product, a
    dual, an identity."""
    m = Matrix.__new__(Matrix)
    all_int = not has_inf and den == 1
    vars(m).update(kind=kind, rows=rows, has_inf=has_inf, all_int=all_int, den=den)
    return m


def make_matrix(kind: SemiringKind, rows: Iterable[Iterable]) -> Matrix:
    """Build a Matrix from nested iterables; the constructor normalizes."""
    return Matrix(kind, tuple(map(tuple, rows)))


def identity(kind: SemiringKind, n: int) -> Matrix:
    """Multiplicative identity: 0 on the diagonal, additive neutral elsewhere.
    Built without the walk: it holds the infinity exactly when n > 1."""
    require_int("matrix dim", n, 1)
    o = add_neutral(kind)
    rows = tuple(tuple(MUL_NEUTRAL if i == j else o for j in range(n)) for i in range(n))
    return _built(kind, rows, n > 1)


def neutral_matrix(kind: SemiringKind, n: int) -> Matrix:
    """Additive neutral: every entry is the semiring's infinity."""
    require_int("matrix dim", n, 1)
    o = add_neutral(kind)
    return _built(kind, ((o,) * n,) * n, True)


def _check_fits(kind: SemiringKind, n: int, b: Matrix) -> None:
    if kind is not b.kind:
        raise TypeError(f"semiring mismatch: {kind} vs {b.kind}")
    if n != b.dim:
        raise ValueError(f"dimension mismatch: {n} vs {b.dim}")


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise semiring sum: the builtin min or max of each pair (the
    infinities order like numbers, so the semiring's own yields the other
    entry)."""
    _check_fits(a.kind, a.dim, b)
    k = a.kind
    pick = min if k is SemiringKind.MIN_PLUS else max
    rows = tuple(tuple(map(pick, r, s)) for r, s in zip(a.rows, b.rows))
    return _built(k, rows) if a.all_int and b.all_int else Matrix(k, rows)


def linear_combination(kind: SemiringKind, n: int, coeffs, mats) -> Matrix:
    """⊕ᵢ cᵢ⊗Mᵢ, entry by entry in one pass: the builtin min or max of the
    sums cᵢ + (Mᵢ)ₗₛ.  The infinities order and add like numbers, so a
    coefficient equal to the infinity contributes nothing; no terms at all
    give the neutral matrix."""
    terms = []
    for c, m in zip(coeffs, mats, strict=True):
        _check_fits(kind, n, m)
        terms.append((c, m))
    if len(terms) < 2:  # map(pick, *rows) below needs two rows
        return scalar_mul(*terms[0]) if terms else neutral_matrix(kind, n)
    pick = min if kind is SemiringKind.MIN_PLUS else max
    rows = tuple(
        tuple(map(pick, *[map(add, r, repeat(c)) for (c, _), r in zip(terms, rs)]))
        for rs in zip(*(m.rows for _, m in terms))
    )
    all_int = all(m.all_int and type(c) is int for c, m in terms)
    return _built(kind, rows) if all_int else Matrix(kind, rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Tropical product: (a ⊗ b)_ij = sum-reduce over l of a_il + b_lj.

    One exact kernel for every input.  The operands' recorded facts say
    whether they hold the semiring's infinity and give the lcm d of their
    Fraction denominators; with d > 1 every finite entry is scaled by d to
    an int, so each entry is the builtin min or max over int sums, skipping
    terms with an infinite factor (an infinite term never wins the pick).
    Results are mapped back by Fraction(v, d), collapsing to int at
    denominator 1, so entries stay canonical.  A product of two all-int
    matrices is all-int and finite, and is built without a walk.
    """
    _check_fits(a.kind, a.dim, b)
    k = a.kind
    o = add_neutral(k)
    pick = min if k is SemiringKind.MIN_PLUS else max
    d = lcm(a.den, b.den)
    rows, cols = a.rows, tuple(zip(*b.rows))
    if d > 1:
        rows, cols = _scaled(rows, d, o), _scaled(cols, d, o)
    if a.has_inf or b.has_inf:
        out = tuple([
            tuple([
                pick([x + y for x, y in zip(row, col) if x is not o and y is not o], default=o)
                for col in cols
            ])
            for row in rows
        ])
    else:
        out = tuple([tuple([pick(map(add, row, col)) for col in cols]) for row in rows])
    if d > 1:
        out = tuple(
            tuple(v if v is o else _unscaled(v, d) for v in row) for row in out
        )
    return _built(k, out) if a.all_int and b.all_int else Matrix(k, out)


def _scaled(rows, d: int, o) -> tuple:
    """Every finite entry times d, as an int (d is a common denominator)."""
    return tuple(
        tuple(x if x is o else x.numerator * (d // x.denominator) for x in row)
        for row in rows
    )


def _unscaled(v: int, d: int) -> Scalar:
    q, r = divmod(v, d)
    return q if r == 0 else Fraction(v, d)


def powers(a: Matrix, e: int) -> list[Matrix]:
    """[a, a^⊗2, ..., a^⊗e], each power one product from the last.

    The powers are kept on a, outside ==, hash and repr, so every caller
    with the same base (two parties drawing from one family, the attack's
    power bases) forms each power once.  A request past the kept ones
    replaces them with a new, longer tuple; nothing is changed in place."""
    if require_int("exponent", e, 0) == 0:
        return []
    # a^⊗2 onward: holding a itself would make a reference cycle
    kept = vars(a).get("_powers", ())
    if len(kept) < e - 1:
        grown = list(kept)
        last = grown[-1] if grown else a
        while len(grown) < e - 1:
            last = mat_mul(last, a)
            grown.append(last)
        kept = vars(a)["_powers"] = tuple(grown)
    return [a, *kept[: e - 1]]


def mat_pow(a: Matrix, e: int) -> Matrix:
    """e-fold tropical power; e = 0 gives the identity."""
    return mat_prod(a.kind, a.dim, [a] * require_int("exponent", e, 0))


def scalar_mul(c, a: Matrix) -> Matrix:
    """Scale every entry by the scalar c (tropically: add c).

    Each entry is x + c (the infinities add like numbers): an infinity
    absorbs a finite term, the opposite infinities raise ArithmeticError and
    the walk refuses the wrong one; it also collapses a sum that reaches
    denominator 1."""
    c = as_scalar(c)
    k = a.kind
    rows = tuple(tuple(map(add, row, repeat(c))) for row in a.rows)
    return _built(k, rows) if a.all_int and type(c) is int else Matrix(k, rows)


def mat_prod(kind: SemiringKind, n: int, factors: Iterable[Matrix]) -> Matrix:
    """Product of a possibly empty sequence of matrices (empty = identity)."""
    acc = None
    for f in factors:
        if acc is None:
            _check_fits(kind, n, f)
            acc = f
        else:
            acc = mat_mul(acc, f)
    return identity(kind, n) if acc is None else acc


def dual(a: Matrix) -> Matrix:
    """Entrywise negation into the opposite semiring.

    Satisfies dual(a ⊗ b) = dual(a) ⊗ dual(b) and swaps min-plus with
    max-plus; the marginal machinery uses it to run max-plus inputs through
    the min-plus code path.  Negation maps a's infinity to the dual's and
    keeps every entry canonical and every denominator, so a's facts hold
    for the dual without a walk.
    """
    rows = tuple(tuple(map(neg, row)) for row in a.rows)
    return _built(a.kind.dual, rows, a.has_inf, a.den)


@dataclass(frozen=True)
class TropPolynomial:
    """Tropical polynomial by coefficient list; index = power of the argument.

    Coefficients are scalars of the intended semiring; a coefficient equal to
    the additive neutral contributes nothing.  Evaluation at a square matrix A
    is coeffs[0] ⊗ I  ⊕  coeffs[1] ⊗ A  ⊕ ... ⊕ coeffs[d] ⊗ A^⊗d.
    """

    kind: SemiringKind
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        bad = NEG_INF if self.kind is SemiringKind.MIN_PLUS else POS_INF
        for c in self.coeffs:
            if c is bad:
                raise ValueError("coefficient from the wrong semiring")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def make_poly(kind: SemiringKind, coeffs: Iterable) -> TropPolynomial:
    return TropPolynomial(kind, tuple(as_scalar(c) for c in coeffs))


def poly_eval(p: TropPolynomial, a: Matrix) -> Matrix:
    """c₁⊗A ⊕ … ⊕ c_d⊗A^⊗d in one pass over the kept powers, then c₀ on
    the diagonal (c₀⊗I is the infinity off it)."""
    if p.kind is not a.kind:
        raise TypeError("polynomial and matrix live in different semirings")
    k, c0 = a.kind, p.coeffs[0]
    acc = linear_combination(k, a.dim, p.coeffs[1:], powers(a, p.degree))
    pick = min if k is SemiringKind.MIN_PLUS else max
    rows = tuple(r[:i] + (pick(r[i], c0),) + r[i + 1 :] for i, r in enumerate(acc.rows))
    return _built(k, rows) if acc.all_int and type(c0) is int else Matrix(k, rows)
