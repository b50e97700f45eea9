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

All of the residuation, cover, box and sampling work runs over min-plus
ints, reached at one boundary (_into_min_plus): max-plus through `dual`,
Fractions by scaling with their common denominator d.  Draws keep their
unscaled spans and are multiplied by d after they are drawn, so the random
stream does not depend on d.  One residuation kernel (_outer) serves every
word shape, and the pair and chain words share one bound table
(BoundTable) of k×k factors.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from math import lcm
from operator import add, ge, sub
from typing import Callable, Iterable, Optional, Sequence, Union

from .matrix import (
    Matrix,
    _built,
    _check_fits,
    _product_rows,
    _scaled,
    _unscaled,
    dual,
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
    is_finite,
    require_int,
)

RETRY_BUDGET = 64

_flat = itertools.chain.from_iterable


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


# Most atoms in a word's summands: verifying a tuple costs one product per
# atom.  The library's own words hold 2n+1 atoms for a chain of n slots.
MAX_WORD_ATOMS = 64


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
        if not isinstance(self.kind, SemiringKind):
            raise TypeError("kind must be a SemiringKind")
        require_int("word dim", self.dim, 1)
        boxes, circles = [], []
        for c in self.constants:
            if c.kind is not self.kind or c.dim != self.dim:
                raise ValueError("constant matrix does not fit the template")
        if not self.summands:
            raise ValueError("template needs at least one summand")
        if sum(map(len, self.summands)) > MAX_WORD_ATOMS:
            raise ValueError(f"word holds more than {MAX_WORD_ATOMS} atoms")
        for summand in self.summands:
            if not summand:
                raise ValueError("empty summand")
            for atom in summand:
                if isinstance(atom, Const):
                    require_int("constant index", atom.index, 0, len(self.constants) - 1)
                elif isinstance(atom, Box):
                    boxes.append(require_int("box slot", atom.slot))
                elif isinstance(atom, Circle):
                    if len(summand) != 1:
                        raise ValueError("an additive slot must stand alone")
                    circles.append(require_int("circle slot", atom.slot))
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
        # An identity drops out of its product, so each product summand is
        # the product of its constants alone (the identity when it has
        # none); a circle summand is the all-infinity matrix, neutral for ⊕,
        # and is left out of the sum.
        total = None
        for summand in self.summands:
            if isinstance(summand[0], Circle):
                continue
            consts = [self.constants[a.index] for a in summand if isinstance(a, Const)]
            term = mat_prod(self.kind, self.dim, consts)
            total = term if total is None else mat_add(total, term)
        return neutral_matrix(self.kind, self.dim) if total is None else total


def right_word(a: Matrix) -> WordTemplate:
    """A ⊗ □"""
    return WordTemplate(a.kind, a.dim, (a,), ((Const(0), Box(0)),))


def left_word(a: Matrix) -> WordTemplate:
    """□ ⊗ A"""
    return WordTemplate(a.kind, a.dim, (a,), ((Box(0), Const(0)),))


def sandwich_word(a: Matrix) -> WordTemplate:
    """□ ⊗ A ⊗ □"""
    return WordTemplate(a.kind, a.dim, (a,), ((Box(0), Const(0), Box(1)),))


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


class MarginalVerificationError(ValueError):
    """A set holds tuples that fail verification; indices names each one."""

    def __init__(self, indices: Sequence[int]):
        super().__init__(f"tuples at indices {list(indices)} do not verify")
        self.indices = tuple(indices)


@dataclass(frozen=True)
class MarginalSet:
    """Tuples each marginal for the word, each checked exactly once: by this
    constructor, once per distinct tuple (MarginalVerificationError), or by
    a sampler or box_marginal_set's corner test, which check their own
    tuples and build through _verified_set."""

    word: WordTemplate
    tuples: tuple[MarginalTuple, ...]

    def __post_init__(self):
        # equal tuples verify alike: a delta body of empty diffs costs one
        verdict = {t: verify_marginal(self.word, t) for t in dict.fromkeys(self.tuples)}
        bad = [k for k, t in enumerate(self.tuples) if not verdict[t]]
        if bad:
            raise MarginalVerificationError(bad)

    def __len__(self) -> int:
        return len(self.tuples)


def _verified_set(word: WordTemplate, tuples: tuple[MarginalTuple, ...]) -> MarginalSet:
    """MarginalSet of tuples the caller has already verified exactly."""
    s = object.__new__(MarginalSet)
    object.__setattr__(s, "word", word)
    object.__setattr__(s, "tuples", tuples)
    return s


def box_marginal_set(word: WordTemplate, cells: Sequence[Sequence[tuple[int, int]]]) -> MarginalSet:
    """Marginal set of the interval box whose k×k cells are (lo, hi) int
    pairs, for a one-slot word of dim k.  The members run over the cells
    row by row, last cell fastest (itertools.product order), from the lo
    corner to the hi corner; a cell with hi < lo leaves the box empty.
    The word's value is monotone in every slot entry over both semirings,
    infinite constants included, so when both corners give the neutral
    value every member does, and the set is built through _verified_set.
    If a corner fails, the MarginalSet constructor checks every member."""
    k = word.dim
    if word.arity != 1 or len(cells) != k or any(len(row) != k for row in cells):
        raise ValueError(f"a box for a one-slot word of dim {k} needs {k}x{k} cells")
    # range yields builtin ints, so every member is all-int and finite;
    # product lists every cell first, so an empty box lists none of them
    ranges = [range(lo, hi + 1) for row in cells for lo, hi in row]
    tuples = tuple(
        (_built(word.kind, tuple(combo[i : i + k] for i in range(0, k * k, k))),)
        for combo in (itertools.product(*ranges) if all(ranges) else ())
    )
    if tuples and verify_marginal(word, tuples[0]) and verify_marginal(word, tuples[-1]):
        return _verified_set(word, tuples)
    return MarginalSet(word, tuples)


def make_marginal_set(word: WordTemplate, tuples: Iterable) -> MarginalSet:
    """Marginal set from raw tuples: normalized, deduplicated by value in
    first-seen order, each verified by the MarginalSet constructor."""
    return MarginalSet(word, tuple(dict.fromkeys(map(_as_tuple, tuples))))


# --------------------------------------------------------------------------
# The boundary: max-plus and Fractions in, min-plus ints out


def _into_min_plus(mats: Sequence[Matrix], cap=None) -> tuple[int, list, Callable]:
    """(d, lowered, back): the matrices (then the cap, if given) in min-plus
    int coordinates, and the map that carries a min-plus int result back.

    Max-plus crosses as its dual, with the cap negated.  d is the lcm of the
    matrices' den (and of a finite cap's denominator), and every finite
    entry and the cap are multiplied by d, which every routine below
    commutes with (positive homogeneity); at d == 1 the entries are ints
    already.  +inf and an infinite cap stay.  back divides by d, then flips
    a max-plus result back.
    """
    flip = mats[0].kind is SemiringKind.MAX_PLUS
    caps = [] if cap is None else [-as_scalar(cap) if flip else as_scalar(cap)]
    d = lcm(*(m.den for m in mats), *(c.denominator for c in caps if is_finite(c)))

    def lower(m: Matrix) -> Matrix:
        if flip:
            m = dual(m)
        if d == 1:
            return m
        return _built(m.kind, _scaled(m.rows, d, POS_INF), m.has_inf)

    def back(m: Matrix) -> Matrix:
        if d > 1:
            rows = [[v if v is POS_INF else _unscaled(v, d) for v in row] for row in m.rows]
            m = Matrix(m.kind, tuple(map(tuple, rows)))
        return dual(m) if flip else m

    lowered = [lower(m) for m in mats]
    lowered += [c if not is_finite(c) else int(c * d) for c in caps]
    return d, lowered, back


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


def _sample_set(word: WordTemplate, n: int, draw, back) -> MarginalSet:
    """Up to n distinct min-plus int tuples from draw(), carried back to the
    word's semiring and units by back; the set is built and verified once:
    each draw raises SelfCheckError unless its tuple keeps the word's value
    in min-plus int coordinates, and back is exact, so that is the word
    check.  The additive draw checks the word's value itself (one ⊕); a
    one-sided draw, a pair or a chain checks only its point, which with a
    fact of the table checked once per set proves the value
    (_sample_one_sided, _sample_pairs, sample_n_factor_marginal).

    Every draw gives a tuple, so the set is never empty; RETRY_BUDGET bounds
    duplicates only: when a new tuple's attempts run out, the box is too
    small for n distinct tuples and what exists is returned.
    """
    require_int("tuple count", n, 1)
    tuples: dict[MarginalTuple, None] = {}
    for _ in range(n):
        for _attempt in range(RETRY_BUDGET):
            t = draw()
            if t not in tuples:
                tuples[t] = None
                break
        else:
            break
    return _verified_set(word, tuple(tuple(back(x) for x in t) for t in tuples))


def _require_finite(a: Matrix, op: str) -> None:
    if a.has_inf:
        raise ValueError(f"{op} requires finite entries")


# --------------------------------------------------------------------------
# Residuation: one kernel for every word shape


def _outer(first: Optional[Sequence], d: Sequence, last: Optional[Sequence]) -> Matrix:
    """E[p][s] = max over i, j of (d_ij - first[i][p] - last[s][j]) over
    the rows of finite min-plus int matrices, in two passes: T[i][s] =
    max_j(d_ij - last[s][j]), then E[p][s] = max_i(T[i][s] - first[i][p]).
    None stands for an identity end and drops its pass.  first and d may
    hold any matching rows i (the pair solve's G keeps those in px).  Every
    difference is an int one, so E is built without the walk."""
    t = d
    if last is not None:
        t = [[max(map(sub, row, c)) for c in last] for row in t]
    if first is not None:
        t_cols = list(zip(*t))
        t = [[max(map(sub, t_col, a_col)) for t_col in t_cols] for a_col in zip(*first)]
    return _built(SemiringKind.MIN_PLUS, tuple(map(tuple, t)))


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
    _, (m,), back = _into_min_plus([a])
    return back(_outer(m.rows, m.rows, None))


def residual_left(a: Matrix) -> Matrix:
    """Principal solution X* of X⊗A = A, the one-slot chain I⊗X⊗A:
    x*_ij = extreme over l of (a_il - a_jl); mirror of residual_right."""
    _require_finite(a, "residuation")
    _, (m,), back = _into_min_plus([a])
    return back(_outer(None, m.rows, m.rows))


def cover_check(a: Matrix, x: Matrix, side: str) -> bool:
    """Tight-position cover test, equivalent to the direct product equality.

    side is "right" (A⊗X = A) or "left" (X⊗A = A).  Requires X inside the
    principal box (X >= X* over min-plus, X <= X* over max-plus); positions
    where x equals x* contribute their attainment sets, and the check passes
    iff those sets jointly cover every scalar equation of the system: the
    one-slot table's BoundTable.covers at the tight positions.  X must share
    A's semiring (TypeError) and dimension (ValueError).
    """
    _check_fits(a.kind, a.dim, x)
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    _, (a, x), _ = _into_min_plus([a, x])
    star = residual_right(a) if side == "right" else residual_left(a)
    if not all(map(ge, _flat(x.rows), _flat(star.rows))):
        raise ValueError("X escapes the principal solution's bound")
    tight = [(i, j) for i, j in itertools.product(range(a.dim), repeat=2) if x[i][j] == star[i][j]]
    return BoundTable(a, star, (a, None) if side == "right" else (None, a)).covers(tight)


def _corner_rows(star: Matrix, cap) -> tuple:
    """Rows of the sampling box's outer corner in min-plus coordinates: x*
    on the pinned diagonal, max(cap, x*) elsewhere."""
    return tuple(
        tuple(x if i == j else max(cap, x) for j, x in enumerate(row))
        for i, row in enumerate(star.rows)
    )


def max_possible_matrix(x_star: Matrix, l) -> Matrix:
    """Outer corner of the sampling box: x* on the pinned diagonal, the cap
    l pushed against x* elsewhere (max over min-plus, min over max-plus)."""
    _, (m, cap), back = _into_min_plus([x_star], l)
    return back(Matrix(SemiringKind.MIN_PLUS, _corner_rows(m, cap)))


def _sample_one_sided(
    a: Matrix, n: int, l, rng: random.Random, side: str
) -> MarginalSet:
    """Up to n distinct draws from the box [X*, X̂] of the given side.  A
    box of one point (no cap reaches past x*, as +150 over max-plus) is
    drawn once: further draws would repeat it and take nothing from the
    stream, so the 1-tuple set and the stream are as after n attempts.  An
    infinite cap beyond x* leaves the box unbounded: ValueError.

    The set costs one product, whatever n.  In min-plus coordinates, for
    the right side: m⊗X* = m, checked once here, and X >= X* give
    m⊗X >= m, since the product is monotone; x*'s zero diagonal, which no
    draw moves, gives (m⊗X)_ij <= m_ij + x_jj = m_ij.  So every X >= X*
    with x*'s diagonal solves m⊗X = m, and each draw checks just that, in
    O(k²).  The left side is the mirror, (X⊗m)_ij <= x_ii + m_ij.  The cap
    X̂ bounds what is drawn, not what is correct.  Either check failing
    raises SelfCheckError."""
    d, (m, cap), back = _into_min_plus([a], l)
    star = residual_right(m) if side == "right" else residual_left(m)
    if cap is POS_INF:
        raise ValueError("the cap leaves the one-sided box unbounded")
    k = a.dim
    flat = [x for row in star.rows for x in row]
    if any(flat[:: k + 1]) or (mat_mul(m, star) if side == "right" else mat_mul(star, m)) != m:
        raise SelfCheckError(f"{side} principal solution breaks the one-sided product")
    # Each entry steps uniformly from x* toward the outer corner x̂
    # (inclusive): floor(x̂ - x*) + 1 choices in unscaled units, one on the
    # pinned diagonal and where the cap does not lie beyond x*, so tightness
    # at x* stays reachable for rational bounds.  A step of v unscaled units
    # adds v * d.
    choices = [(hi - x) // d + 1 for x, hi in zip(flat, _flat(_corner_rows(star, cap)))]
    positions = [i for i, c in enumerate(choices) if c > 1]
    spans = [choices[i] for i in positions]

    def draw():
        vals = flat[:]
        for i, v in zip(positions, _randbelow(rng, spans)):
            vals[i] += v * d
        if any(vals[:: k + 1]) or not all(map(ge, vals, flat)):
            raise SelfCheckError(f"{side} sample leaves the box above X*")
        rows = tuple(tuple(vals[i : i + k]) for i in range(0, k * k, k))
        return (_built(SemiringKind.MIN_PLUS, rows),)

    word = right_word(a) if side == "right" else left_word(a)
    if not positions:
        require_int("tuple count", n, 1)
        n = 1
    return _sample_set(word, n, draw, back)


def sample_right_marginal(a: Matrix, n: int, l, rng: random.Random) -> MarginalSet:
    """n random solutions of A⊗X = A, entrywise uniform over [X*, X̂] with
    the diagonal pinned at x* (which alone already covers the system).  The
    set is checked by one product, A⊗X* = A, and each draw by its place in
    the box: above X* with the zero diagonal, in O(k²)."""
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
        """Diagonal index tuples (p₁..pₙ) whose bound is 0.  In min-plus
        coordinates d_ij <= A₁[i][p₁] + A₂[p₁][p₂] + ... + Aₙ₊₁[pₙ][j], so
        every all-diagonal bound is <= 0, and each d_ij is attained along some
        p₁..pₙ, which is then a zero pair: px and py are never empty, and
        diagonals pinned to values summing to 0 meet every all-diagonal
        bound.  covers(zero_pairs) checks the attainment.  The bound is
        E[p₁][pₙ] less the middle factors along the tuple, so it is 0 where
        they sum to E's entry: for two slots, where E[p][r] == B[p][r]."""
        k, n, e = self.product.dim, self.n_slots, self.outer.rows
        mid = [m.rows for m in self.chain[1:-1]]
        return frozenset(
            p
            for p in itertools.product(range(k), repeat=n)
            if e[p[0]][p[-1]] == sum(m[i][j] for m, i, j in zip(mid, p, p[1:]))
        )

    def covers(self, indices: Iterable[tuple[int, ...]]) -> bool:
        """Whether every d_ij of a min-plus int table's product is
        first[i][p] + e_pq + last[q][j] at the ends (p, q) = (index[0],
        index[-1]) of some given index, first and last the chain's ends; a
        None end is the identity and pins p = i or q = j: the set-covering
        criterion (Butkovič, Max-linear Systems, ch. 3).  Given Z >= E and
        z_pq = e_pq at the given ends, it proves A₁⊗Z⊗Aₙ₊₁ = D; at all of Z's
        tight positions it decides it (README, "How chain sets are checked")."""
        first, last = self.chain[0], self.chain[-1]
        d, e, k = self.product.rows, self.outer.rows, self.product.dim
        # a[p] holds the finite (i, first[i][p]), c[q] the finite (j, last[q][j])
        ident = [[(p, 0)] for p in range(k)]
        a = ident if first is None else [[*enumerate(col)] for col in zip(*first.rows)]
        c = ident if last is None else [[*enumerate(row)] for row in last.rows]
        ends = {(t[0], t[-1]) for t in indices}
        covered = {
            (i, j) for p, q in ends for i, x in a[p] for j, y in c[q] if x + e[p][q] + y == d[i][j]
        }
        return len(covered) == k * k

    @functools.cached_property
    def px(self) -> frozenset[int]:
        """Projection of the zero pairs on the first slot."""
        return frozenset(p[0] for p in self.zero_pairs)

    @functools.cached_property
    def py(self) -> frozenset[int]:
        """Projection of the zero pairs on the last slot."""
        return frozenset(p[-1] for p in self.zero_pairs)

    @functools.cached_property
    def _pin_free(self) -> Matrix:
        """G[r][s] = max over p in px of (E[p][s] - B[p][r]), the part of the
        pair solve's Y bound that no draw changes: the residual of E by B
        over the rows in px, one pass of the residuation kernel.  Valid on
        the min-plus int two-slot tables _sample_pairs builds only; on the
        two-sided table (E = B = A, px every row) G is X* of A⊗X = A."""
        e, b = self.outer.rows, self.chain[1].rows
        return _outer([b[p] for p in self.px], [e[p] for p in self.px], None)


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
    _, lowered, back = _into_min_plus(chain)
    product = functools.reduce(mat_mul, lowered)
    outer = _outer(lowered[0].rows, product.rows, lowered[-1].rows)
    return BoundTable(back(product), back(outer), chain)


def five_factor_residual(a: Matrix, b: Matrix, c: Matrix) -> BoundTable:
    """Bounds for A⊗X⊗B⊗Y⊗C = A⊗B⊗C: the two-slot chain."""
    return n_factor_residual((a, b, c))


# --------------------------------------------------------------------------
# Two-slot sampler (X⊗A⊗Y = A and A⊗X⊗B⊗Y⊗C = A⊗B⊗C)


def _solve_pair(
    table: BoundTable, h, r: list[list], s: list[list]
) -> tuple[Matrix, Matrix, Matrix]:
    """Canonical point (X, Y) of the pinned two-slot system over min-plus
    ints, with the product X⊗B⊗Y it formed on the way.

    The system is x_pq + y_rs >= E[p][s] - B[q][r] for all p, q, r, s,
    x_pp + y_rr = 0 on the zero pairs, X >= R and Y >= S, where R_pp = h on
    px and S_rr = -h on py, as _sample_pairs draws them; the tests build it
    in full (_pair_system in tests/pair_reference.py) as the reference.  It
    is solved from the k×k factors E and B alone, to the point that
    solve_feasible_min returns for it: Y pointwise least, X least given Y.

    A zero pair (p, r) has x_pp >= h and y_rr >= -h summing to 0, so the
    pins fix x_pp = h on px and y_rr = -h on py.  Y is the largest of S and
    G - h, G[r][s] the largest E[p][s] - B[p][r] over p in px
    (BoundTable._pin_free, formed once per table), and X, least given Y,
    the largest of R and the residual _outer(None, E, B⊗Y).  That gives
    x_pp = h through R and G, with no re-pin: for p in px, y_rs >= E[p][s]
    - B[p][r] - h, so (B⊗Y)[p][s] >= E[p][s] - h and the residual is at
    most h = R_pp at (p, p).  A draw makes three k³ passes: B⊗Y, X, and
    X⊗(B⊗Y) for the point check.  Two facts of the tables two_sided_residual
    and five_factor_residual build make that point the solution
    (BoundTable.zero_pairs): (a) every all-diagonal bound E[p][r] - B[p][r]
    is <= 0, so no y_rr on py rises above -h, and a table that breaks it
    there fails the draw's point check; (b) px is never empty, and a table
    without a zero pair raises SelfCheckError.
    """
    if not table.px:
        raise SelfCheckError("bound table has no zero pair")
    y_rows = [
        [max(low, g - h) for low, g in zip(s_row, g_row)]
        for s_row, g_row in zip(s, table._pin_free.rows)
    ]
    ys = _built(SemiringKind.MIN_PLUS, tuple(map(tuple, y_rows)))
    by = mat_mul(table.chain[1], ys)
    x_low = _outer(None, table.outer.rows, by.rows).rows
    xs = _built(SemiringKind.MIN_PLUS, tuple(tuple(map(max, *rows)) for rows in zip(r, x_low)))
    return xs, ys, mat_mul(xs, by)


def _check_pair_point(table: BoundTable, r, s, xs: Matrix, ys: Matrix, xby: Matrix) -> None:
    """The draw's point check on a pair, given xby = X⊗(B⊗Y): X⊗B⊗Y >= E
    entrywise (which is the whole grid x_pq + y_rs >= E[p][s] - B[q][r]),
    the zero-pair equalities and both lower bounds."""
    x, y = xs.rows, ys.rows
    if not (
        all(map(ge, _flat(xby.rows), _flat(table.outer.rows)))
        and all(x[p][p] + y[rr][rr] == 0 for p, rr in table.zero_pairs)
        and all(map(ge, _flat(x), _flat(r)))
        and all(map(ge, _flat(y), _flat(s)))
    ):
        raise SelfCheckError("pair solve produced an invalid point")


def _sample_pairs(
    word: WordTemplate, residual, n: int, l1: int, l2: int, rng: random.Random
) -> MarginalSet:
    """n pairs from the bound table residual(*constants) of the word's
    constants in min-plus int coordinates.

    A pin value h and the free lower bounds are drawn from [l1, l2] and
    multiplied by d; rows of the zero-pair projections get their diagonal
    bounds pinned to h and -h, and _solve_pair produces the canonical pair
    of that pinned system.  Max-plus inputs run through the min-plus
    reduction by negation, with l1..l2 read in the reduced coordinates.
    The value is proved once per set (README, "How chain sets are checked"):
    a pair passing _check_pair_point has Z = X⊗B⊗Y >= E and z_pq = e_pq on
    the zero pairs, so A⊗Z⊗C = D once BoundTable.covers(zero_pairs) holds,
    which is checked before any draw.
    """
    require_int("l1", l1)
    require_int("l2", l2, l1)
    d, constants, back = _into_min_plus(word.constants)
    table = residual(*constants)
    if not table.covers(table.zero_pairs):
        raise SelfCheckError("a product entry is attained at no zero pair")
    k = table.product.dim
    pin_r = {p * (k + 1) for p in table.px}
    pin_s = {p * (k + 1) for p in table.py}
    # h, then each cell's R value and S value but the pinned ones
    spans = [l2 - l1 + 1] * (1 + 2 * k * k - len(pin_r) - len(pin_s))

    def draw():
        h, *free = ((l1 + v) * d for v in _randbelow(rng, spans))
        free = iter(free)
        r, s = [], []
        for c in range(k * k):
            r.append(h if c in pin_r else next(free))
            s.append(-h if c in pin_s else next(free))
        r, s = ([m[i : i + k] for i in range(0, k * k, k)] for m in (r, s))
        xs, ys, xby = _solve_pair(table, h, r, s)
        _check_pair_point(table, r, s, xs, ys, xby)
        return xs, ys

    return _sample_set(word, n, draw, back)


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
    """n pairs (X, Y) with A⊗X⊗B⊗Y⊗C = A⊗B⊗C; every draw is feasible."""
    return _sample_pairs(chain_word((a, b, c)), five_factor_residual, n, l1, l2, rng)


# --------------------------------------------------------------------------
# General chains


def _repair_chain(table: BoundTable, mats: list) -> Optional[tuple]:
    """Lift off-diagonal entries of the slot matrices in place until every
    bound of the chain's table holds; return the final S₁ (None for one slot).

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
                    s = _product_rows(min, mid[t], tuple(zip(*mats[t + 1])))
                    if below is not None:
                        s = _product_rows(min, s, tuple(zip(*below)))
                elif x[p][p] < row[p] - cp:
                    raise SelfCheckError("all-diagonal bound violated")
        return s

    return walk(0, None, 0, 0)


# Most diagonal prefixes, k^(n-1) for n slots at dim k, one chain draw walks.
MAX_CHAIN_PREFIXES = 256


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
    Above MAX_CHAIN_PREFIXES, a chain is refused before any draw.  As for
    pairs, covers(zero_pairs) is checked once per set and each draw checks
    Z = X₁⊗S₁ >= E and its pinned diagonals, in one list product (README,
    "How chain sets are checked").
    """
    require_int("l1", l1)
    require_int("l2", l2, l1)
    chain = list(chain)
    if len(chain) < 2:
        raise ValueError("chain needs at least two matrices")
    n, k = len(chain) - 1, chain[0].dim
    if k ** (n - 1) > MAX_CHAIN_PREFIXES:
        raise ValueError(f"chain walks {k}^{n - 1} prefixes, more than {MAX_CHAIN_PREFIXES}")
    d, lowered, back = _into_min_plus(chain)
    table = n_factor_residual(lowered)
    if not table.covers(table.zero_pairs):
        raise SelfCheckError("a product entry is attained at no zero index")
    word = chain_word(chain)
    # h₁..hₙ₋₁, then each slot's off-diagonal entries row by row
    spans = [l2 - l1 + 1] * (n - 1 + n * k * (k - 1))

    def draw():
        vals = [(l1 + v) * d for v in _randbelow(rng, spans)]
        hs = vals[: n - 1]
        hs.append(-sum(hs))
        free = iter(vals[n - 1 :])
        mats = [
            [[hs[t] if i == j else next(free) for j in range(k)] for i in range(k)]
            for t in range(n)
        ]
        s1 = _repair_chain(table, mats)
        z = mats[0] if s1 is None else _product_rows(min, mats[0], tuple(zip(*s1)))
        pinned = not sum(hs) and all(m[p][p] == h for m, h in zip(mats, hs) for p in range(k))
        if not (pinned and all(map(ge, _flat(z), _flat(table.outer.rows)))):
            raise SelfCheckError("sampled tuple changes the chain product")
        return tuple(_built(SemiringKind.MIN_PLUS, tuple(map(tuple, m))) for m in mats)

    return _sample_set(word, n_tuples, draw, back)


# --------------------------------------------------------------------------
# Additive slots (A ⊕ ◯ = A)


def sample_additive_marginal(a: Matrix, n: int, l: int, rng: random.Random) -> MarginalSet:
    """n matrices A ⊕ X = A: nonnegative offsets up to l away from A, pushed
    in the direction the semiring order allows.  X is (A ⊕ ◯)-marginal iff
    X >= A over min-plus (iff X <= A over max-plus)."""
    require_int("l", l, 0)
    d, (m,), back = _into_min_plus([a])
    spans = [l + 1] * (a.dim * a.dim)

    def draw():
        offsets = iter([v * d for v in _randbelow(rng, spans)])
        rows = tuple(tuple(map(add, row, offsets)) for row in m.rows)
        x = _built(SemiringKind.MIN_PLUS, rows, m.has_inf)
        if mat_add(m, x) != m:
            raise SelfCheckError("additive sample changes A ⊕ X")
        return (x,)

    return _sample_set(additive_word(a), n, draw, back)
