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
One residuation kernel (_outer) serves every word shape, and the pair and
chain words share one bound table (BoundTable) of k×k factors.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from math import floor, lcm
from operator import add, ge, sub
from typing import Iterable, Optional, Sequence, Union

from .matrix import (
    Matrix,
    _built,
    _scaled,
    _unscaled,
    dual,
    identity,
    make_matrix,
    mat_add,
    mat_mul,
    mat_prod,
    neutral_matrix,
)
from .semiring import (
    POS_INF,
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
    # slot counts, set once from the summands; not part of ==, hash or repr
    n_box: int = field(init=False, repr=False, compare=False)
    n_circle: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "n_box", len(boxes))
        object.__setattr__(self, "n_circle", len(circles))

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

        def resolve(atom: Atom) -> Matrix:
            if isinstance(atom, Const):
                return self.constants[atom.index]
            if isinstance(atom, Box):
                return values[atom.slot]
            return values[self.n_box + atom.slot]

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
    return (value,) if isinstance(value, Matrix) else tuple(value)


def verify_marginal(word: WordTemplate, value) -> bool:
    """Exact test: substituted word value equals neutral-substituted value."""
    return word.evaluate(list(_as_tuple(value))) == word.neutral_value()


@dataclass(frozen=True)
class MarginalSet:
    """Tuples each marginal for the word, each checked exactly once: by this
    constructor (ValueError), or by a sampler or the wire decoder, which
    check their own tuples and build through _verified_set."""

    word: WordTemplate
    tuples: tuple[MarginalTuple, ...]

    def __post_init__(self):
        if not all(verify_marginal(self.word, t) for t in self.tuples):
            raise ValueError("non-marginal tuple in marginal set")

    def __len__(self) -> int:
        return len(self.tuples)


def _verified_set(word: WordTemplate, tuples: tuple[MarginalTuple, ...]) -> MarginalSet:
    """MarginalSet of tuples the caller has already verified exactly."""
    s = object.__new__(MarginalSet)
    object.__setattr__(s, "word", word)
    object.__setattr__(s, "tuples", tuples)
    return s


def make_marginal_set(word: WordTemplate, tuples: Iterable) -> MarginalSet:
    """Marginal set from raw tuples: normalized, deduplicated by value in
    first-seen order, each verified by the MarginalSet constructor."""
    return MarginalSet(word, tuple(dict.fromkeys(map(_as_tuple, tuples))))


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


def _require_int(name: str, value) -> None:
    """Sampler counts and caps feed `random` directly: builtin ints only."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


def _randbelow(rng: random.Random, spans: Iterable[int]) -> list[int]:
    """rng.randrange(span) for each span in order, as CPython's _randbelow
    draws it: getrandbits of the span's bit length, drawn again while the
    value is out of range.  The values and the generator's state afterwards
    are those of the randrange calls, and every sampler reaches the
    generator through here, without randrange's three Python frames per
    value.  Spans are ints >= 1; a span of 1 still takes bits."""
    bits = rng.getrandbits
    out = []
    for span in spans:
        k = span.bit_length()
        v = bits(k)
        while v >= span:
            v = bits(k)
        out.append(v)
    return out


def _sample_set(word: WordTemplate, n: int, draw, flip, fixed: bool = False) -> MarginalSet:
    """Up to n distinct min-plus tuples from draw(), carried back to the
    word's semiring by flip; the set is built and verified once: each draw
    raises SelfCheckError unless its tuple keeps the word's value in min-plus
    coordinates, and flip is exact, so that is the word check.

    draw() returns None for a failed draw.  Each tuple gets RETRY_BUDGET
    attempts; when they run out the box is too small for n distinct tuples
    and what exists is returned, unless nothing does.  fixed says that
    draw() returns one tuple every time without touching the random stream
    (a one-point box): it is drawn once, since more draws would only repeat
    it, and the set and the stream come out as after the full retry loop.
    """
    _require_int("tuple count", n)
    if n < 1:
        raise ValueError("need n >= 1 tuples")
    tuples: dict[MarginalTuple, None] = {}
    for _ in range(1 if fixed else n):
        for _attempt in range(RETRY_BUDGET):
            t = draw()
            if t is not None and t not in tuples:
                tuples[t] = None
                break
        else:
            break
    if not tuples:
        raise SamplerExhausted("sampler retry budget exhausted")
    return _verified_set(word, tuple(tuple(flip(x) for x in t) for t in tuples))


def _transpose(a: Matrix) -> Matrix:
    return _built(a.kind, tuple(zip(*a.rows)), a.has_inf, a.all_int, a.den)


def _require_finite(a: Matrix, op: str) -> None:
    if not a.is_finite():
        raise ValueError(f"{op} requires finite entries")


# --------------------------------------------------------------------------
# Residuation: one kernel for every word shape


def _outer(first: Optional[Matrix], d: Matrix, last: Optional[Matrix]) -> Matrix:
    """E[p][s] = max over i, j of (d_ij - first[i][p] - last[s][j]) over
    finite min-plus matrices, in two passes: T[i][s] = max_j(d_ij -
    last[s][j]), then E[p][s] = max_i(T[i][s] - first[i][p]).  None stands
    for an identity end and drops its pass.  Entries that are not all
    builtin ints are scaled by their common denominator, so every
    difference is an int one, and mapped back."""
    given = [m for m in (first, d, last) if m is not None]
    den = lcm(*(m.den for m in given))
    exact = all(m.all_int for m in given)
    first, t, last = (
        m if m is None else m.rows if exact else _scaled(m.rows, den, None)
        for m in (first, d, last)
    )
    if last is not None:
        t = [[max(map(sub, row, c)) for c in last] for row in t]
    if first is not None:
        t_cols = list(zip(*t))
        t = [[max(map(sub, t_col, a_col)) for t_col in t_cols] for a_col in zip(*first)]
    if den == 1:
        return _built(SemiringKind.MIN_PLUS, tuple(map(tuple, t)))
    return Matrix(
        SemiringKind.MIN_PLUS, tuple(tuple(_unscaled(v, den) for v in row) for row in t)
    )


# --------------------------------------------------------------------------
# One-sided words (A⊗X = A and X⊗A = A)


def residual_right(a: Matrix) -> Matrix:
    """Principal solution X* of A⊗X = A, the one-slot chain A⊗X⊗I:
    x*_ij = extreme over l of (a_lj - a_li), max for min-plus, min for
    max-plus.  Over min-plus X solves iff X >= X* and the tight positions
    cover the equation grid; over max-plus the order flips (X <= X*).  The
    diagonal of X* is zero, and pinning it keeps any X in the box a solution.
    """
    _require_finite(a, "residuation")
    flip, _ = _crossing(a.kind)
    m = flip(a)
    return flip(_outer(m, m, None))


def residual_left(a: Matrix) -> Matrix:
    """Principal solution X* of X⊗A = A, the one-slot chain I⊗X⊗A:
    x*_ij = extreme over l of (a_il - a_jl); mirror of residual_right."""
    _require_finite(a, "residuation")
    flip, _ = _crossing(a.kind)
    m = flip(a)
    return flip(_outer(None, m, m))


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
    star = residual_right(a)
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


def max_possible_matrix(x_star: Matrix, l) -> Matrix:
    """Outer corner of the sampling box: x* on the pinned diagonal, the cap
    l pushed against x* elsewhere (max over min-plus, min over max-plus)."""
    flip, flip_cap = _crossing(x_star.kind)
    l = flip_cap(as_scalar(l))
    rows = tuple(
        tuple(x if i == j else s_max(l, x) for j, x in enumerate(row))
        for i, row in enumerate(flip(x_star).rows)
    )
    return flip(Matrix(SemiringKind.MIN_PLUS, rows))


def _sample_one_sided(
    a: Matrix, n: int, l, rng: random.Random, side: str
) -> MarginalSet:
    """Up to n distinct draws from the box [X*, X̂] of the given side.  A
    box of one point (no cap reaches past x*, as +150 over max-plus) is
    drawn once: further draws would repeat it and take nothing from the
    stream, so the 1-tuple set and the stream are as after n attempts.  An
    infinite cap beyond x* leaves the box unbounded: ValueError."""
    flip, flip_cap = _crossing(a.kind)
    m = flip(a)
    star = residual_right(m) if side == "right" else residual_left(m)
    cap = flip_cap(as_scalar(l))
    if cap is POS_INF:
        raise ValueError("the cap leaves the one-sided box unbounded")
    # Each entry steps uniformly from x* toward the outer corner x̂
    # (inclusive), read off x* and the cap as max_possible_matrix would
    # build it: one choice on the pinned diagonal and where the cap does not
    # lie beyond x*, floor(cap - x*) + 1 otherwise, so tightness at x* stays
    # reachable for rational bounds.  An int step keeps each entry's reduced
    # denominator (p/q + k = (p + kq)/q), so every draw holds x*'s facts:
    # finite, the same all_int and den, and needs no walk.
    k = a.dim
    flat = [x for row in star.rows for x in row]
    choices = [
        1 if i % (k + 1) == 0 or not s_lt(x, cap) else floor(cap - x) + 1
        for i, x in enumerate(flat)
    ]
    positions = [i for i, c in enumerate(choices) if c > 1]
    spans = [choices[i] for i in positions]

    def draw():
        vals = flat[:]
        for i, v in zip(positions, _randbelow(rng, spans)):
            vals[i] += v
        rows = tuple(tuple(vals[i : i + k]) for i in range(0, k * k, k))
        x = _built(SemiringKind.MIN_PLUS, rows, False, star.all_int, star.den)
        if (mat_mul(m, x) if side == "right" else mat_mul(x, m)) != m:
            raise SelfCheckError(f"{side} sample breaks the one-sided product")
        return (x,)

    word = right_word(a) if side == "right" else left_word(a)
    return _sample_set(word, n, draw, flip, not positions)


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

    @functools.cached_property
    def partners(self) -> dict[int, list[int]]:
        """For a two-slot table: each p of px, in increasing order, with the
        r of its zero pairs (p, r)."""
        return {p: [rr for pp, rr in self.zero_pairs if pp == p] for p in sorted(self.px)}


def two_sided_residual(a: Matrix) -> BoundTable:
    """Bounds for X⊗A⊗Y = A: index (i, p, q, j) bounds x_ip + y_qj by
    a_ij - a_pq.  The chain is (None, A, None), the residuation kernel's
    case with both ends identity, where E = A: nothing is computed."""
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
    """Bounds for A₁⊗X₁⊗...⊗Xₙ⊗Aₙ₊₁ = A₁⊗...⊗Aₙ₊₁."""
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
    d = functools.reduce(mat_mul, lowered)
    return BoundTable(flip(d), flip(_outer(lowered[0], d, lowered[-1])), chain)


def five_factor_residual(a: Matrix, b: Matrix, c: Matrix) -> BoundTable:
    """Bounds for A⊗X⊗B⊗Y⊗C = A⊗B⊗C: the two-slot chain."""
    return n_factor_residual((a, b, c))


# --------------------------------------------------------------------------
# Two-slot sampler (X⊗A⊗Y = A and A⊗X⊗B⊗Y⊗C = A⊗B⊗C)


def _solve_pair(
    table: BoundTable, r: list[list], s: list[list]
) -> Optional[tuple[Matrix, Matrix, Matrix, Matrix]]:
    """Canonical point (X, Y) of the two-slot system, with the products B⊗Y
    and X⊗B⊗Y it formed on the way, or None when it is infeasible.

    The system is x_pq + y_rs >= E[p][s] - B[q][r] for all p, q, r, s,
    x_pp + y_rr = 0 on the zero pairs, X >= R and Y >= S; selfcheck builds it
    in full (_pair_system) as the reference for the worked instances.
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
    e, b = table.outer.rows, table.chain[1].rows
    partners = table.partners
    px = list(partners)
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
    # Both matrices are formed row by row as max(map(sub, ...)) over
    # columns, the shape of mat_mul's kernel: y_is = max(S_is, max over p
    # in px of (E[p][s] - x_p) - B[p][i]), x_pq = max(R_pq, max over s of
    # E[p][s] - (B⊗Y)[q][s]), x_pp = x_p on px.
    if px:
        e_cols = tuple(zip(*([v - x[p] for v in e[p]] for p in px)))
        b_cols = zip(*(b[p] for p in px))
        y_rows = [
            [max(low, max(map(sub, e_col, b_col))) for low, e_col in zip(s_row, e_cols)]
            for s_row, b_col in zip(s, b_cols)
        ]
    else:
        y_rows = s
    exact = (
        table.outer.all_int
        and table.chain[1].all_int
        and all(type(v) is int for v in itertools.chain(*r, *s))
    )
    ys = _exact_rows(y_rows, exact)
    by = mat_mul(table.chain[1], ys)
    x_rows = [
        [max(low, max(map(sub, e_row, by_row))) for low, by_row in zip(r_row, by.rows)]
        for r_row, e_row in zip(r, e)
    ]
    for p in px:
        x_rows[p][p] = x[p]
    xs = _exact_rows(x_rows, exact)
    xby = mat_mul(xs, by)
    _check_pair_point(table, r, s, xs, ys, xby)
    return xs, ys, by, xby


def _exact_rows(rows, all_int: bool) -> Matrix:
    """Min-plus matrix of finite rows: built as they are when all_int says
    every entry is an int, canonicalized and walked otherwise."""
    if all_int:
        return _built(SemiringKind.MIN_PLUS, tuple(map(tuple, rows)))
    return make_matrix(SemiringKind.MIN_PLUS, rows)


def _check_pair_point(table: BoundTable, r, s, xs: Matrix, ys: Matrix, xby: Matrix) -> None:
    """The solver's point check on a pair, given xby = X⊗(B⊗Y): X⊗B⊗Y >= E
    entrywise (which is the whole grid x_pq + y_rs >= E[p][s] - B[q][r]),
    the zero-pair equalities and both lower bounds."""
    flat = itertools.chain.from_iterable
    x, y = xs.rows, ys.rows
    if not (
        all(map(ge, flat(xby.rows), flat(table.outer.rows)))
        and all(x[p][p] + y[rr][rr] == 0 for p, rr in table.zero_pairs)
        and all(map(ge, flat(x), flat(r)))
        and all(map(ge, flat(y), flat(s)))
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
    in the reduced coordinates.  The word check reads the solve's products:
    X⊗(B⊗Y) for the sandwich, (A⊗X)⊗(B⊗Y)⊗C for the five-factor word, not
    A⊗(X⊗B⊗Y)⊗C, which would repeat the reduction that formed A⊗B⊗C.
    """
    _require_int("l1", l1)
    _require_int("l2", l2)
    if l1 > l2:
        raise ValueError("empty bound range")
    flip, _ = _crossing(word.kind)
    table = residual(*(flip(m) for m in word.constants))
    k = table.product.dim
    px, py = table.px, table.py
    first, _, last = table.chain
    # h, then every r[i][j] and s[i][j] but the pinned diagonals
    spans = [l2 - l1 + 1] * (1 + 2 * k * k - len(px) - len(py))

    def draw():
        h, *free = (l1 + v for v in _randbelow(rng, spans))
        free = iter(free)
        r = [[0] * k for _ in range(k)]
        s = [[0] * k for _ in range(k)]
        for i, j in itertools.product(range(k), repeat=2):
            r[i][j] = h if i == j and i in px else next(free)
            s[i][j] = -h if i == j and i in py else next(free)
        solved = _solve_pair(table, r, s)
        if solved is None:
            return None
        xs, ys, by, xby = solved
        value = xby if first is None else mat_mul(mat_mul(mat_mul(first, xs), by), last)
        if value != table.product:
            raise SelfCheckError("sampled pair changes the word's value")
        return xs, ys

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


def _min_plus(a, b) -> list:
    """Min-plus product of two finite square matrices given as row lists."""
    cols = tuple(zip(*b))
    return [[min(map(add, row, col)) for col in cols] for row in a]


def _repair_chain(table: BoundTable, mats: list) -> None:
    """Lift off-diagonal entries of the slot matrices in place until every
    bound of the chain's table holds.

    The result is that of one pass over all k^(2n) index tuples in
    lexicographic order, each violated tuple lifting the entry of its first
    off-diagonal slot to the bound.  The tuples whose slots before t sit on
    diagonals (p₁..pₜ₋₁) and whose slot t sits at (p, q), p ≠ q, are one
    contiguous run of that order, and they lift only Xₜ[p][q].  So the run
    is one update:

        Xₜ[p][q] = max(Xₜ[p][q], max_s(E[p₁][s] - Sₜ[q][s]) - c)

    with Sₜ = Aₜ₊₁⊗Xₜ₊₁⊗...⊗Aₙ⊗Xₙ (min-plus, from the current X; the
    identity for the last slot) and c the prefix's diagonal entries plus its
    middle A entries.  The walk goes depth first: a diagonal (p, p) recurses
    into the next slot, whose lifts change Sₜ, so Sₜ is formed anew after
    each recursion.  All-diagonal tuples lift nothing; they must hold.
    """
    e = table.outer.rows
    mid = [m.rows for m in table.chain[1:-1]]
    n, k = len(mats), len(e)

    def walk(t: int, first, last: int, c):
        """Repair slot t below a diagonal prefix; return the final Sₜ (None
        for the last slot)."""
        x, s = mats[t], None
        for p in range(k):
            row = e[p] if t == 0 else first
            cp = c if t == 0 else c + mid[t - 1][last][p]
            for q in range(k):
                if p != q:
                    lift = (row[q] if t == n - 1 else max(map(sub, row, s[q]))) - cp
                    if x[p][q] < lift:
                        x[p][q] = lift
                elif t < n - 1:
                    below = walk(t + 1, row, p, cp + x[p][p])
                    nxt = mats[t + 1]
                    s = _min_plus(mid[t], nxt if below is None else _min_plus(nxt, below))
                elif x[p][p] < row[p] - cp:
                    raise SelfCheckError("all-diagonal bound violated")
        return s

    walk(0, None, 0, 0)


def sample_n_factor_marginal(
    chain: Sequence[Matrix], n_tuples: int, l1: int, l2: int, rng: random.Random
) -> MarginalSet:
    """n_tuples tuples (X₁..Xₙ) leaving the chain product unchanged.

    Construction: split a zero sum h₁+...+hₙ = 0 with h₁..hₙ₋₁ uniform in
    [l1, l2] and pin every diagonal of Xₜ to hₜ; off-diagonal entries start
    at uniform lower bounds and one monotone repair pass (_repair_chain)
    lifts the first off-diagonal position of each violated bound.
    All-diagonal index tuples sum to zero, which meets their bounds (those
    are never positive) and realizes the tightness cover through the
    product's argmin chains, so the repaired tuple always verifies.
    """
    _require_int("l1", l1)
    _require_int("l2", l2)
    if l1 > l2:
        raise ValueError("empty bound range")
    chain = list(chain)
    flip, _ = _crossing(chain[0].kind)
    table = n_factor_residual([flip(m) for m in chain])
    n, k = table.n_slots, table.product.dim
    # h₁..hₙ₋₁, then each slot's off-diagonal entries row by row
    spans = [l2 - l1 + 1] * (n - 1 + n * k * (k - 1))

    def draw():
        vals = [l1 + v for v in _randbelow(rng, spans)]
        hs = vals[: n - 1]
        hs.append(-sum(hs))
        free = iter(vals[n - 1 :])
        mats = [
            [[hs[t] if i == j else next(free) for j in range(k)] for i in range(k)]
            for t in range(n)
        ]
        _repair_chain(table, mats)
        # make_matrix keeps the entries canonical: the repair pass can leave
        # Fraction(k, 1) behind on a chain with Fraction entries.
        xs = tuple(make_matrix(SemiringKind.MIN_PLUS, m) for m in mats)
        slots = itertools.chain.from_iterable(zip(xs, table.chain[1:]))
        if functools.reduce(mat_mul, [table.chain[0], *slots]) != table.product:
            raise SelfCheckError("sampled tuple changes the chain product")
        return xs

    return _sample_set(chain_word(chain), n_tuples, draw, flip)


# --------------------------------------------------------------------------
# Additive slots (A ⊕ ◯ = A)


def sample_additive_marginal(a: Matrix, n: int, l: int, rng: random.Random) -> MarginalSet:
    """n matrices A ⊕ X = A: nonnegative offsets up to l away from A, pushed
    in the direction the semiring order allows.  X is (A ⊕ ◯)-marginal iff
    X >= A over min-plus (iff X <= A over max-plus)."""
    _require_int("l", l)
    if l < 0:
        raise ValueError("offset cap must be >= 0")
    flip, _ = _crossing(a.kind)
    m = flip(a)
    spans = [l + 1] * (a.dim * a.dim)

    def draw():
        offsets = iter(_randbelow(rng, spans))
        rows = tuple(tuple(map(s_mul, row, offsets)) for row in m.rows)
        x = Matrix(SemiringKind.MIN_PLUS, rows)
        if mat_add(m, x) != m:
            raise SelfCheckError("additive sample changes A ⊕ X")
        return (x,)

    return _sample_set(additive_word(a), n, draw, flip)
