"""Marginal tuples and sets: verification, residuation, covers, samplers.

A word template is a sum of products over fixed constant matrices,
multiplicative slots (filled by identity under neutral substitution) and
additive slots (filled by the all-infinity matrix).  A tuple of matrices is
marginal for the template when substituting it leaves the word's value at
exactly the neutral-substitution value.

The samplers below generate marginal sets for the word shapes the protocols
need: A⊗□, □⊗A, □⊗A⊗□, A⊗□⊗B⊗□⊗C, longer chains, and A⊕◯.  They are
deterministic given their random generator and verify every tuple before
returning it.

All of the residuation, cover, box and sampling work runs over min-plus;
max-plus inputs cross into it through `dual` at one boundary (_crossing).
The pair and chain words share one bound table (BoundTable) that stores only
k×k factors.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from operator import sub
from typing import Iterable, Optional, Sequence, Union

from .constraints import ConstraintSystem, VarId
from .matrix import (
    Matrix,
    dual,
    identity,
    make_matrix,
    mat_add,
    mat_mul,
    mat_prod,
    neutral_matrix,
)
from .semiring import (
    Scalar,
    SelfCheckError,
    SemiringKind,
    as_scalar,
    s_lt,
    s_max,
    s_mul,
    s_neg,
    s_sub,
)

RETRY_BUDGET = 64


class SamplerExhausted(RuntimeError):
    """Raised when a sampler's retry budget runs out."""


# --------------------------------------------------------------------------
# Word templates


@dataclass(frozen=True)
class Const:
    index: int


@dataclass(frozen=True)
class Box:
    slot: int


@dataclass(frozen=True)
class Circle:
    slot: int


Atom = Union[Const, Box, Circle]


@dataclass(frozen=True)
class WordTemplate:
    kind: SemiringKind
    dim: int
    constants: tuple[Matrix, ...]
    summands: tuple[tuple[Atom, ...], ...]

    def __post_init__(self):
        boxes, circles = [], []
        for c in self.constants:
            if c.kind is not self.kind or c.dim != self.dim:
                raise ValueError("constant matrix does not fit the template")
        if not self.summands:
            raise ValueError("template needs at least one summand")
        for summand in self.summands:
            if not summand:
                raise ValueError("empty summand")
            for atom in summand:
                if isinstance(atom, Const):
                    if not 0 <= atom.index < len(self.constants):
                        raise ValueError("constant index out of range")
                elif isinstance(atom, Box):
                    boxes.append(atom.slot)
                elif isinstance(atom, Circle):
                    if len(summand) != 1:
                        raise ValueError("an additive slot must stand alone")
                    circles.append(atom.slot)
                else:
                    raise TypeError(f"not an atom: {atom!r}")
        if sorted(boxes) != list(range(len(boxes))):
            raise ValueError("box slots must be 0..n-1, each used once")
        if sorted(circles) != list(range(len(circles))):
            raise ValueError("circle slots must be 0..n-1, each used once")

    @property
    def n_box(self) -> int:
        return sum(
            1 for s in self.summands for a in s if isinstance(a, Box)
        )

    @property
    def n_circle(self) -> int:
        return sum(
            1 for s in self.summands for a in s if isinstance(a, Circle)
        )

    @property
    def arity(self) -> int:
        return self.n_box + self.n_circle

    def evaluate(self, values: Sequence[Matrix]) -> Matrix:
        """Value of the word with box slots, then circle slots, filled from
        `values` in order."""
        if len(values) != self.arity:
            raise ValueError(f"expected {self.arity} matrices, got {len(values)}")
        for v in values:
            if v.kind is not self.kind or v.dim != self.dim:
                raise ValueError("tuple matrix does not fit the template")
        n_box = self.n_box

        def resolve(atom: Atom) -> Matrix:
            if isinstance(atom, Const):
                return self.constants[atom.index]
            if isinstance(atom, Box):
                return values[atom.slot]
            return values[n_box + atom.slot]

        total = None
        for summand in self.summands:
            term = mat_prod(self.kind, self.dim, [resolve(a) for a in summand])
            total = term if total is None else mat_add(total, term)
        return total

    def neutral_value(self) -> Matrix:
        """Word value with identity in every box and all-infinity in every
        circle slot; computed once per template."""
        return self._neutral_value

    @functools.cached_property
    def _neutral_value(self) -> Matrix:
        e = identity(self.kind, self.dim)
        o = neutral_matrix(self.kind, self.dim)
        return self.evaluate([e] * self.n_box + [o] * self.n_circle)


def right_word(a: Matrix) -> WordTemplate:
    """A ⊗ □"""
    return WordTemplate(a.kind, a.dim, (a,), ((Const(0), Box(0)),))


def left_word(a: Matrix) -> WordTemplate:
    """□ ⊗ A"""
    return WordTemplate(a.kind, a.dim, (a,), ((Box(0), Const(0)),))


def sandwich_word(a: Matrix) -> WordTemplate:
    """□ ⊗ A ⊗ □"""
    return WordTemplate(a.kind, a.dim, (a,), ((Box(0), Const(0), Box(1)),))


def five_factor_word(a: Matrix, b: Matrix, c: Matrix) -> WordTemplate:
    """A ⊗ □ ⊗ B ⊗ □ ⊗ C"""
    return WordTemplate(
        a.kind,
        a.dim,
        (a, b, c),
        ((Const(0), Box(0), Const(1), Box(1), Const(2)),),
    )


def chain_word(constants: Sequence[Matrix]) -> WordTemplate:
    """A₁ ⊗ □ ⊗ A₂ ⊗ □ ⊗ ... ⊗ □ ⊗ A_{n+1} (n slots between n+1 constants)."""
    if len(constants) < 2:
        raise ValueError("chain needs at least two constants")
    atoms: list[Atom] = [Const(0)]
    for t in range(1, len(constants)):
        atoms.append(Box(t - 1))
        atoms.append(Const(t))
    first = constants[0]
    return WordTemplate(first.kind, first.dim, tuple(constants), (tuple(atoms),))


def additive_word(a: Matrix) -> WordTemplate:
    """A ⊕ ◯"""
    return WordTemplate(a.kind, a.dim, (a,), ((Const(0),), (Circle(0),)))


MarginalTuple = tuple[Matrix, ...]


def _as_tuple(value) -> MarginalTuple:
    if isinstance(value, Matrix):
        return (value,)
    return tuple(value)


def verify_marginal(word: WordTemplate, value) -> bool:
    """Exact test: substituted word value equals neutral-substituted value."""
    return word.evaluate(list(_as_tuple(value))) == word.neutral_value()


@dataclass(frozen=True)
class MarginalSet:
    word: WordTemplate
    tuples: tuple[MarginalTuple, ...]

    def __post_init__(self):
        for t in self.tuples:
            if not verify_marginal(self.word, t):
                raise ValueError("non-marginal tuple in marginal set")

    def __len__(self) -> int:
        return len(self.tuples)


def make_marginal_set(word: WordTemplate, tuples: Iterable) -> MarginalSet:
    """Marginal set from raw tuples: normalized, deduplicated by value in
    first-seen order, each verified at insertion."""
    seen: dict[MarginalTuple, None] = {}
    for t in tuples:
        seen.setdefault(_as_tuple(t))
    return MarginalSet(word, tuple(seen))


# --------------------------------------------------------------------------
# The dual boundary


def _crossing(kind: SemiringKind):
    """Maps that carry matrices and caps into min-plus coordinates.

    Every residuation, cover-check, box-draw and sampler routine below works
    over min-plus only.  A max-plus input crosses here, as its dual and with
    its caps negated; both maps are their own inverses, so the same maps
    carry the results back.  Min-plus inputs cross unchanged.
    """
    if kind is SemiringKind.MIN_PLUS:
        return (lambda x: x), (lambda x: x)
    return dual, s_neg


def _sample_set(word: WordTemplate, n: int, draw, flip) -> MarginalSet:
    """Up to n distinct min-plus tuples from draw(), carried back to the
    word's semiring by flip; the set is built and verified once.

    draw() returns None for a failed draw.  Each tuple gets RETRY_BUDGET
    attempts; when they run out the box is too small for n distinct tuples
    and what exists is returned, unless nothing does.
    """
    if n < 1:
        raise ValueError("need n >= 1 tuples")
    tuples: dict[MarginalTuple, None] = {}
    for _ in range(n):
        for _attempt in range(RETRY_BUDGET):
            t = draw()
            if t is not None and t not in tuples:
                tuples[t] = None
                break
        else:
            break
    if not tuples:
        raise SamplerExhausted("sampler retry budget exhausted")
    return MarginalSet(word, tuple(tuple(flip(x) for x in t) for t in tuples))


def _chain_product(factors) -> Matrix:
    """Left-to-right product, skipping None (identity) factors."""
    return functools.reduce(mat_mul, [f for f in factors if f is not None])


def _transpose(a: Matrix) -> Matrix:
    return Matrix(a.kind, tuple(zip(*a.rows)))


def _require_finite(a: Matrix, op: str) -> None:
    if not a.is_finite():
        raise ValueError(f"{op} requires finite entries")


# --------------------------------------------------------------------------
# One-sided residuation (A⊗X = A and X⊗A = A)


@dataclass(frozen=True)
class OneSidedResidual:
    """Principal solution of A⊗X = A (residual_right) or X⊗A = A
    (residual_left).

    Over min-plus, X* is the least solution: X solves iff X >= X* and the
    tight positions cover the equation grid.  Over max-plus the order flips
    (X <= X*).  The diagonal of X* is always zero and pinning it keeps any
    X inside the box a solution.
    """

    source: Matrix
    x_star: Matrix


def residual_right(a: Matrix) -> OneSidedResidual:
    """x*_ij = extreme over l of (a_lj - a_li); max for min-plus, min for
    max-plus."""
    _require_finite(a, "residuation")
    flip, _ = _crossing(a.kind)
    m = flip(a).rows
    n = a.dim
    rows = tuple(
        tuple(max(s_sub(m[l][j], m[l][i]) for l in range(n)) for j in range(n))
        for i in range(n)
    )
    return OneSidedResidual(a, flip(Matrix(SemiringKind.MIN_PLUS, rows)))


def residual_left(a: Matrix) -> OneSidedResidual:
    """x*_ij = extreme over l of (a_il - a_jl): the transpose of the right
    residual of Aᵀ, since X⊗A = A iff Aᵀ⊗Xᵀ = Aᵀ."""
    star = residual_right(_transpose(a)).x_star
    return OneSidedResidual(a, _transpose(star))


def cover_check(a: Matrix, x: Matrix, side: str) -> bool:
    """Tight-position cover test, equivalent to the direct product equality.

    side is "right" (A⊗X = A) or "left" (X⊗A = A).  Requires X inside the
    principal box (X >= X* over min-plus, X <= X* over max-plus); positions
    where x equals x* contribute their attainment sets, and the check passes
    iff those sets jointly cover every scalar equation of the system.
    """
    if side == "left":
        a, x = _transpose(a), _transpose(x)
    elif side != "right":
        raise ValueError("side must be 'right' or 'left'")
    flip, _ = _crossing(a.kind)
    a, x = flip(a), flip(x)
    star = residual_right(a).x_star
    n = a.dim
    if any(s_lt(x.rows[i][j], star.rows[i][j]) for i in range(n) for j in range(n)):
        raise ValueError("X escapes the principal solution's bound")
    covered = {
        (l, j)
        for i in range(n)
        for j in range(n)
        if x.rows[i][j] == star.rows[i][j]
        for l in range(n)
        if s_sub(a.rows[l][j], a.rows[l][i]) == star.rows[i][j]
    }
    return len(covered) == n * n


def diagonal_pairs(n: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, i) for i in range(n))


def max_possible_matrix(t_set, x_star: Matrix, l) -> Matrix:
    """Outer corner of the sampling box: x* on the pinned positions, the cap
    l pushed against x* elsewhere (max over min-plus, min over max-plus)."""
    flip, flip_cap = _crossing(x_star.kind)
    l = flip_cap(as_scalar(l))
    star = flip(x_star).rows
    pinned = set(t_set)
    n = x_star.dim
    rows = tuple(
        tuple(
            star[i][j] if (i, j) in pinned else s_max(l, star[i][j])
            for j in range(n)
        )
        for i in range(n)
    )
    return flip(Matrix(SemiringKind.MIN_PLUS, rows))


def _box_draw(star: Scalar, outer: Scalar, rng: random.Random) -> Scalar:
    """Uniform integer step from x* up toward the outer corner (inclusive).

    For integer bounds this is the uniform integer draw on [x*, x̂]; for
    rational bounds the step count is floor of the gap so tightness at x*
    stays reachable.
    """
    gap = s_sub(outer, star)
    span = int(gap) if isinstance(gap, int) else int(gap.numerator // gap.denominator)
    if span <= 0:
        return star
    return s_mul(star, rng.randint(0, span))


def _sample_one_sided(
    a: Matrix, n: int, l, rng: random.Random, side: str
) -> MarginalSet:
    flip, flip_cap = _crossing(a.kind)
    m = flip(a)
    star = (residual_right(m) if side == "right" else residual_left(m)).x_star
    outer = max_possible_matrix(diagonal_pairs(a.dim), star, flip_cap(as_scalar(l)))

    def draw():
        rows = tuple(
            tuple(
                _box_draw(star.rows[i][j], outer.rows[i][j], rng)
                for j in range(a.dim)
            )
            for i in range(a.dim)
        )
        x = Matrix(SemiringKind.MIN_PLUS, rows)
        if (mat_mul(m, x) if side == "right" else mat_mul(x, m)) != m:
            raise SelfCheckError(f"{side} sample breaks the one-sided product")
        return (x,)

    word = right_word(a) if side == "right" else left_word(a)
    return _sample_set(word, n, draw, flip)


def sample_right_marginal(a: Matrix, n: int, l, rng: random.Random) -> MarginalSet:
    """n random solutions of A⊗X = A, entrywise uniform over [X*, X̂] with
    the diagonal pinned at x* (which alone already covers the system)."""
    return _sample_one_sided(a, n, l, rng, "right")


def sample_left_marginal(a: Matrix, n: int, l, rng: random.Random) -> MarginalSet:
    """n random solutions of X⊗A = A; mirror of sample_right_marginal."""
    return _sample_one_sided(a, n, l, rng, "left")


# --------------------------------------------------------------------------
# Bound tables of chains (A₁⊗X₁⊗A₂⊗...⊗Xₙ⊗A₍ₙ₊₁₎ = A₁⊗...⊗A₍ₙ₊₁₎)


@dataclass(frozen=True)
class BoundTable:
    """Residuation bounds of an n-slot chain, stored as k×k factors only.

    Index (p₁,q₁,...,pₙ,qₙ) bounds x₁_{p₁q₁} + ... + xₙ_{pₙqₙ} by

        bound = E[p₁][qₙ] - Σₜ Aₜ₊₁[qₜ][pₜ₊₁]
        E[p][s] = extreme over i, j of (d_ij - A₁[i][p] - Aₙ₊₁[s][j])

    with D the chain product and the extreme a max over min-plus (the sum
    must reach the bound) and a min over max-plus (the sum must stay under
    it).  `chain` holds A₁..Aₙ₊₁, with None standing for an identity end: the
    two-sided word X⊗A⊗Y = A is (None, A, None), where E = A and every
    diagonal pair is a zero pair.
    """

    product: Matrix
    outer: Matrix
    chain: tuple

    @property
    def n_slots(self) -> int:
        return len(self.chain) - 1

    def bound(self, *index: int) -> Scalar:
        value = self.outer.rows[index[0]][index[-1]]
        for t in range(1, len(self.chain) - 1):
            value -= self.chain[t].rows[index[2 * t - 1]][index[2 * t]]
        return value

    def block_matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        """Flatten to k^n x k^n, rows indexed by (p₁..pₙ) and columns by
        (q₁..qₙ); for two slots, blocks by (p, q) and positions inside a
        block by (r, s)."""
        k, n = self.product.dim, self.n_slots
        ps = list(itertools.product(range(k), repeat=n))
        return tuple(
            tuple(
                self.bound(*itertools.chain.from_iterable(zip(p, q))) for q in ps
            )
            for p in ps
        )

    @functools.cached_property
    def zero_pairs(self) -> frozenset[tuple[int, ...]]:
        """Diagonal index tuples (p₁..pₙ) whose bound is 0.  Every
        all-diagonal bound is <= 0 and each scalar equation has a zero pair
        attaining it, which is what makes the equality-pinned sampler always
        feasible."""
        k, n = self.product.dim, self.n_slots
        return frozenset(
            p
            for p in itertools.product(range(k), repeat=n)
            if self.bound(*(i for i in p for _ in range(2))) == 0
        )

    @functools.cached_property
    def px(self) -> frozenset[int]:
        """Projection of the zero pairs on the first slot."""
        return frozenset(p[0] for p in self.zero_pairs)

    @functools.cached_property
    def py(self) -> frozenset[int]:
        """Projection of the zero pairs on the last slot."""
        return frozenset(p[-1] for p in self.zero_pairs)

    def holds(self, xs: Sequence[Matrix]) -> bool:
        """Direct check that the slot values leave the chain product
        unchanged.  Identity ends are skipped, so X⊗A⊗Y costs two
        products."""
        slots = itertools.chain.from_iterable(zip(xs, self.chain[1:]))
        return _chain_product([self.chain[0], *slots]) == self.product


def two_sided_residual(a: Matrix) -> BoundTable:
    """Bounds for X⊗A⊗Y = A: index (i, p, q, j) bounds x_ip + y_qj by
    a_ij - a_pq."""
    _require_finite(a, "residuation")
    return BoundTable(a, a, (None, a, None))


def render_two_sided_constraints(a: Matrix) -> tuple[str, ...]:
    """The constraint list as displayed for the 2x2 worked instance: one line
    per (x_ip, y_qj) pair, with the always-tight diagonal pairs shown as
    equalities."""
    table = two_sided_residual(a)
    lines = []
    for i, p, q, j in itertools.product(range(a.dim), repeat=4):
        lhs = f"x{i + 1}{p + 1} + y{q + 1}{j + 1}"
        if i == p and q == j:
            lines.append(f"{lhs} = 0")
        else:
            lines.append(f"{lhs} >= {table.bound(i, p, q, j)}")
    return tuple(lines)


def n_factor_residual(chain: Sequence[Matrix]) -> BoundTable:
    chain = tuple(chain)
    if len(chain) < 2:
        raise ValueError("chain needs at least two matrices")
    first = chain[0]
    for m in chain:
        if m.kind is not first.kind or m.dim != first.dim:
            raise ValueError("chain matrices must share kind and dimension")
        _require_finite(m, "residuation")
    flip, _ = _crossing(first.kind)
    lowered = [flip(m) for m in chain]
    d = _chain_product(lowered)
    a, c, k = lowered[0].rows, lowered[-1].rows, first.dim
    outer = tuple(
        tuple(
            max(
                d.rows[i][j] - a[i][p] - c[s][j]
                for i in range(k)
                for j in range(k)
            )
            for s in range(k)
        )
        for p in range(k)
    )
    return BoundTable(flip(d), flip(Matrix(SemiringKind.MIN_PLUS, outer)), chain)


def five_factor_residual(a: Matrix, b: Matrix, c: Matrix) -> BoundTable:
    """Bounds for A⊗X⊗B⊗Y⊗C = A⊗B⊗C: the two-slot chain."""
    return n_factor_residual((a, b, c))


# --------------------------------------------------------------------------
# Two-slot sampler (X⊗A⊗Y = A and A⊗X⊗B⊗Y⊗C = A⊗B⊗C)


def _pair_system(
    table: BoundTable, r: list[list[int]], s: list[list[int]]
) -> ConstraintSystem:
    """The two-slot system as an explicit ConstraintSystem: the full
    inequality grid x_pq + y_rs >= bound(p, q, r, s) = E[p][s] - B[q][r], the
    zero pairs as diagonal equalities, and the drawn lower bounds.  The
    sampler solves it without building it (_solve_pair); solve_feasible_min
    on this form is the reference for the worked instances and the tests."""
    k = table.product.dim
    e, b = table.outer.rows, table.chain[1].rows
    x = [[VarId("x", i, j) for j in range(k)] for i in range(k)]
    y = [[VarId("y", i, j) for j in range(k)] for i in range(k)]
    sys = ConstraintSystem(negated_tags=("y",))
    for p, q, rr, ss in itertools.product(range(k), repeat=4):
        sys.add_sum_ge(x[p][q], y[rr][ss], e[p][ss] - b[q][rr])
    for p, rr in sorted(table.zero_pairs):
        sys.add_sum_eq(x[p][p], y[rr][rr], 0)
    for i, j in itertools.product(range(k), repeat=2):
        sys.set_lower(x[i][j], r[i][j])
        sys.set_lower(y[i][j], s[i][j])
    return sys


def _assignment_to_pair(assignment: dict, n: int) -> tuple[Matrix, Matrix]:
    return tuple(
        Matrix(
            SemiringKind.MIN_PLUS,
            tuple(
                tuple(assignment[VarId(tag, i, j)] for j in range(n))
                for i in range(n)
            ),
        )
        for tag in ("x", "y")
    )


def _solve_pair(
    table: BoundTable, r: list[list], s: list[list]
) -> Optional[tuple[Matrix, Matrix]]:
    """Canonical point of the two-slot system, or None when it is infeasible.

    The system is _pair_system(table, r, s): x_pq + y_rs >= E[p][s] - B[q][r]
    for all p, q, r, s, x_pp + y_rr = 0 on the zero pairs, X >= R and Y >= S.
    It is solved from the k×k factors E and B alone, to the point that
    solve_feasible_min returns for it: Y pointwise least, X least given Y.

    In the solver's graph (z = -y) the only edges into a plain variable are
    the zero pairs' z_rr -> x_pp, so every cycle lies on the origin and the
    diagonal nodes x_pp (p in px) and z_rr (r in py):

    - Bellman-Ford settles those diagonals.  One round reads each x_pp off
      its partners' y_rr, then each y_rr off the x_pp.  A simple path meets
      at most |px| of the x_pp, so a system still changing after |px| + 1
      rounds has a negative cycle.
    - An x_pp below its lower bound closes a negative cycle through the
      origin.
    - Every y_rs is then the largest of S_rs and E[p][s] - B[p][r] - x_pp
      over p in px.
    - Every other x_pq is the least value its lower bound and its rows
      allow: the largest of R_pq and E[p][s] - (B⊗Y)[q][s] over s.
    """
    k = table.product.dim
    e, b = table.outer.rows, table.chain[1].rows
    px = sorted(table.px)
    partners = {p: [rr for pp, rr in table.zero_pairs if pp == p] for p in px}
    y = {rr: s[rr][rr] for rr in table.py}
    for _ in range(len(px) + 1):
        x = {p: -max(y[rr] for rr in partners[p]) for p in px}
        settled = {
            rr: max(s[rr][rr], *(e[p][rr] - b[p][rr] - x[p] for p in px)) for rr in y
        }
        if settled == y:
            break
        y = settled
    else:
        return None
    if any(x[p] < r[p][p] for p in px):
        return None
    ys = Matrix(
        SemiringKind.MIN_PLUS,
        tuple(
            tuple(
                as_scalar(max(column))
                for column in zip(s[i], *([v - b[p][i] - x[p] for v in e[p]] for p in px))
            )
            for i in range(k)
        ),
    )
    by = mat_mul(table.chain[1], ys).rows
    xs = Matrix(
        SemiringKind.MIN_PLUS,
        tuple(
            tuple(
                as_scalar(x[p]) if p == q and p in x else
                as_scalar(max(r[p][q], max(map(sub, e[p], by[q]))))
                for q in range(k)
            )
            for p in range(k)
        ),
    )
    _check_pair_point(table, r, s, xs, ys)
    return xs, ys


def _check_pair_point(table: BoundTable, r, s, xs: Matrix, ys: Matrix) -> None:
    """The solver's point check on a pair: X⊗B⊗Y >= E entrywise (which is
    the whole grid x_pq + y_rs >= E[p][s] - B[q][r]), the zero-pair
    equalities and both lower bounds."""
    x, y = xs.rows, ys.rows
    xby = mat_mul(mat_mul(xs, table.chain[1]), ys).rows
    if (
        any(v < w for row, bound in zip(xby, table.outer.rows) for v, w in zip(row, bound))
        or any(x[p][p] + y[rr][rr] != 0 for p, rr in table.zero_pairs)
        or any(v < w for row, low in zip(x, r) for v, w in zip(row, low))
        or any(v < w for row, low in zip(y, s) for v, w in zip(row, low))
    ):
        raise SelfCheckError("pair solve produced an invalid point")


def _sample_pairs(
    word: WordTemplate, residual, n: int, l1: int, l2: int, rng: random.Random
) -> MarginalSet:
    """n pairs from the bound table residual(*constants) of the word's
    constants in min-plus coordinates.

    A pin value h and the free lower bounds are drawn from [l1, l2]; rows of
    the zero-pair projections get their diagonal bounds pinned to h and -h,
    the zero pairs themselves become equalities, and _solve_pair produces
    the canonical pair.  Infeasible draws retry within the budget.  Max-plus
    inputs run through the min-plus reduction by negation, with l1..l2 read
    in the reduced coordinates.
    """
    if l1 > l2:
        raise ValueError("empty bound range")
    flip, _ = _crossing(word.kind)
    table = residual(*(flip(m) for m in word.constants))
    k = table.product.dim
    px, py = table.px, table.py

    def draw():
        h = rng.randint(l1, l2)
        r = [[0] * k for _ in range(k)]
        s = [[0] * k for _ in range(k)]
        for i, j in itertools.product(range(k), repeat=2):
            if i == j:
                r[i][j] = h if i in px else rng.randint(l1, l2)
                s[i][j] = -h if i in py else rng.randint(l1, l2)
            else:
                r[i][j] = rng.randint(l1, l2)
                s[i][j] = rng.randint(l1, l2)
        pair = _solve_pair(table, r, s)
        if pair is not None and not table.holds(pair):
            raise SelfCheckError("sampled pair changes the word's value")
        return pair

    return _sample_set(word, n, draw, flip)


def sample_sandwich_marginal(
    a: Matrix, n: int, l1: int, l2: int, rng: random.Random
) -> MarginalSet:
    """n pairs (X, Y) with X⊗A⊗Y = A.

    Every diagonal pair is a zero pair here, so each draw pins x_ii = d and
    y_jj = -d for one d and draws the off-diagonal bounds freely.
    """
    return _sample_pairs(sandwich_word(a), two_sided_residual, n, l1, l2, rng)


def sample_five_factor_marginal(
    a: Matrix, b: Matrix, c: Matrix, n: int, l1: int, l2: int, rng: random.Random
) -> MarginalSet:
    """n pairs (X, Y) with A⊗X⊗B⊗Y⊗C = A⊗B⊗C; always feasible, but a
    retry budget guards the loop."""
    return _sample_pairs(five_factor_word(a, b, c), five_factor_residual, n, l1, l2, rng)


# --------------------------------------------------------------------------
# General chains


def sample_n_factor_marginal(
    chain: Sequence[Matrix], n_tuples: int, l1: int, l2: int, rng: random.Random
) -> MarginalSet:
    """n_tuples tuples (X₁..Xₙ) leaving the chain product unchanged.

    Construction: split a zero sum h₁+...+hₙ = 0 with h₁..hₙ₋₁ uniform in
    [l1, l2] and pin every diagonal of Xₜ to hₜ; off-diagonal entries start
    at uniform lower bounds and one monotone repair pass lifts the first
    off-diagonal position of each violated bound.  All-diagonal index tuples
    sum to zero, which meets their bounds (those are never positive) and
    realizes the tightness cover through the product's argmin chains, so the
    repaired tuple always verifies.
    """
    if l1 > l2:
        raise ValueError("empty bound range")
    chain = list(chain)
    flip, _ = _crossing(chain[0].kind)
    table = n_factor_residual([flip(m) for m in chain])
    n, k = table.n_slots, table.product.dim

    def draw():
        hs = [rng.randint(l1, l2) for _ in range(n - 1)]
        hs.append(-sum(hs))
        mats = [
            [
                [hs[t] if i == j else rng.randint(l1, l2) for j in range(k)]
                for i in range(k)
            ]
            for t in range(n)
        ]
        for index in itertools.product(range(k), repeat=2 * n):
            need = table.bound(*index)
            have = sum(mats[t][index[2 * t]][index[2 * t + 1]] for t in range(n))
            if have < need:
                for t in range(n):
                    if index[2 * t] != index[2 * t + 1]:
                        mats[t][index[2 * t]][index[2 * t + 1]] += need - have
                        break
                else:
                    raise SelfCheckError("all-diagonal bound violated")
        # make_matrix keeps the entries canonical: the repair pass can leave
        # Fraction(k, 1) behind on a chain with Fraction entries.
        xs = tuple(make_matrix(SemiringKind.MIN_PLUS, m) for m in mats)
        if not table.holds(xs):
            raise SelfCheckError("sampled tuple changes the chain product")
        return xs

    return _sample_set(chain_word(chain), n_tuples, draw, flip)


# --------------------------------------------------------------------------
# Additive slots (A ⊕ ◯ = A)


def sample_additive_marginal(a: Matrix, n: int, l: int, rng: random.Random) -> MarginalSet:
    """n matrices A ⊕ X = A: nonnegative offsets up to l away from A, pushed
    in the direction the semiring order allows.  X is (A ⊕ ◯)-marginal iff
    X >= A over min-plus (iff X <= A over max-plus)."""
    if l < 0:
        raise ValueError("offset cap must be >= 0")
    flip, _ = _crossing(a.kind)
    m = flip(a)

    def draw():
        rows = tuple(
            tuple(s_mul(m.rows[i][j], rng.randint(0, l)) for j in range(a.dim))
            for i in range(a.dim)
        )
        x = Matrix(SemiringKind.MIN_PLUS, rows)
        if mat_add(m, x) != m:
            raise SelfCheckError("additive sample changes A ⊕ X")
        return (x,)

    return _sample_set(additive_word(a), n, draw, flip)
