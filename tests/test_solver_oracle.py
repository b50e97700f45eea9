"""The integer-indexed solver against the dict-based solver it replaced.

The reference below is the earlier `solve_feasible_min` of
`tropmarg.constraints`, kept verbatim (edge list of `Edge` objects, node
labels as dict keys).  The solver under test must return an equal
assignment, in the same order and with the same scalar types, or an
identical certificate: the same edges in the same order, with the same
tail, head, weight and reason.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg import constraints
from tropmarg.constraints import ConstraintSystem, Edge, Infeasible, VarId
from tropmarg.marginal import _pair_system, five_factor_residual, two_sided_residual
from tropmarg.matrix import make_matrix
from tropmarg.semiring import Scalar, SelfCheckError, SemiringKind

# ---------------------------------------------------------------------------
# Reference solver (verbatim).

_ORIGIN = "origin"


def _build_edges(sys: ConstraintSystem) -> list[Edge]:
    edges = []
    for v in sys.variables():
        if v not in sys.lower:
            raise ValueError(f"variable {v} has no lower bound")
    for v, b in sys.lower.items():
        if v.tag in sys.negated_tags:
            # -v <= -b, anchored at the origin.
            edges.append(Edge(_ORIGIN, ("z", v), -b, f"{v} >= {b}"))
        else:
            edges.append(Edge(("x", v), _ORIGIN, -b, f"{v} >= {b}"))
    for x, y, c in sys.sum_ge:
        edges.append(Edge(("x", x), ("z", y), -c, f"{x} + {y} >= {c}"))
    for x, y, c in sys.sum_eq:
        edges.append(Edge(("x", x), ("z", y), -c, f"{x} + {y} = {c}"))
        edges.append(Edge(("z", y), ("x", x), c, f"{x} + {y} = {c}"))
    return edges


def solve_feasible_min(sys: ConstraintSystem) -> Union[dict, Infeasible]:
    """Canonical extreme feasible assignment, or an Infeasible certificate.

    The negated-side variables come out pointwise minimal over all feasible
    assignments; each plain-side variable then takes its least value
    compatible with those.  Deterministic, so golden tests can rely on it.
    """
    edges = _build_edges(sys)
    nodes = {_ORIGIN}
    for e in edges:
        nodes.add(e.tail)
        nodes.add(e.head)
    n_nodes = len(nodes)

    # Phase 1: negative-cycle detection with every node as a source (all
    # distances start at 0).  A negative cycle anywhere is a contradictory
    # constraint subset, reachable or not.
    dist: dict = {n: 0 for n in nodes}
    pred: dict = {}
    last_relaxed = None
    for _ in range(n_nodes):
        last_relaxed = None
        for e in edges:
            nd = dist[e.tail] + e.weight
            if nd < dist[e.head]:
                dist[e.head] = nd
                pred[e.head] = e
                last_relaxed = e.head
        if last_relaxed is None:
            break
    if last_relaxed is not None:
        return Infeasible(_extract_cycle(pred, last_relaxed, n_nodes))

    # Phase 2: distances from the origin give the extreme assignment.
    dist = {n: None for n in nodes}
    dist[_ORIGIN] = 0
    for _ in range(n_nodes - 1):
        changed = False
        for e in edges:
            d = dist[e.tail]
            if d is None:
                continue
            nd = d + e.weight
            if dist[e.head] is None or nd < dist[e.head]:
                dist[e.head] = nd
                changed = True
        if not changed:
            break

    assignment: dict[VarId, Scalar] = {}
    for v in sys.variables():
        if v.tag in sys.negated_tags:
            d = dist[("z", v)]
            if d is None:
                raise SelfCheckError("negated variable must be bound below")
            assignment[v] = _norm(-d)
    for v in sys.variables():
        if v.tag in sys.negated_tags:
            continue
        d = dist.get(("x", v))
        if d is not None:
            assignment[v] = _norm(d)
        else:
            best = sys.lower[v]
            for x, y, c in sys.sum_ge:
                if x == v:
                    need = c - assignment[y]
                    if need > best:
                        best = need
            assignment[v] = _norm(best)

    if not sys.check_assignment(assignment):
        raise SelfCheckError("solver produced an invalid point")
    return assignment


def _extract_cycle(pred: dict, start, n_nodes: int) -> tuple[Edge, ...]:
    # start was relaxed on the final pass, so it is reachable from a negative
    # cycle; n predecessor hops land strictly inside that cycle.
    node = start
    for _ in range(n_nodes):
        node = pred[node].tail
    loop = []
    cur = node
    while True:
        e = pred[cur]
        loop.append(e)
        cur = e.tail
        if cur == node:
            break
    loop.reverse()
    total = sum(e.weight for e in loop)
    if not total < 0:
        raise SelfCheckError("extracted cycle is not negative")
    return tuple(loop)


def _norm(x) -> Scalar:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


# ---------------------------------------------------------------------------
# Agreement.


def assert_agrees(sys: ConstraintSystem) -> Union[dict, Infeasible]:
    """Compared through repr, which pins the scalar types too: 3 and
    Fraction(3, 1) are equal but print differently."""
    want = solve_feasible_min(sys)
    got = constraints.solve_feasible_min(sys)
    if isinstance(want, Infeasible):
        assert isinstance(got, Infeasible)
        assert repr(got.cycle) == repr(want.cycle)
    else:
        assert not isinstance(got, Infeasible)
        assert repr(list(got.items())) == repr(list(want.items()))
    return got


MIN = SemiringKind.MIN_PLUS


def _matrix(k, rng, fractions=False):
    def value():
        if fractions:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 3))
        return rng.randint(-20, 20)

    return make_matrix(MIN, [[value() for _ in range(k)] for _ in range(k)])


def _table(shape, k, rng, fractions=False):
    if shape == "sandwich":
        return two_sided_residual(_matrix(k, rng, fractions))
    return five_factor_residual(*(_matrix(k, rng, fractions) for _ in range(3)))


def _bounds(table, rng, pinned, l1=-20, l2=20):
    """Lower bounds as the two-slot sampler draws them when pinned: the
    diagonals of the zero-pair rows at h and -h, the rest free."""
    k = table.product.dim
    h = rng.randint(l1, l2)
    r = [[rng.randint(l1, l2) for _ in range(k)] for _ in range(k)]
    s = [[rng.randint(l1, l2) for _ in range(k)] for _ in range(k)]
    if pinned:
        for i in range(k):
            if i in table.px:
                r[i][i] = h
            if i in table.py:
                s[i][i] = -h
    return r, s


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("shape", ["sandwich", "five-factor"])
@pytest.mark.parametrize("pinned", [True, False])
def test_pair_systems_agree(k, shape, pinned):
    rng = random.Random(f"oracle/{k}/{shape}/{pinned}")
    verdicts = []
    for _ in range(8):
        table = _table(shape, k, rng)
        verdicts.append(assert_agrees(_pair_system(table, *_bounds(table, rng, pinned))))
    if pinned and shape == "sandwich":
        assert not any(isinstance(v, Infeasible) for v in verdicts)
    if not pinned:
        assert any(isinstance(v, Infeasible) for v in verdicts)


@pytest.mark.parametrize("k", [2, 3])
def test_fraction_pair_systems_agree(k):
    rng = random.Random(f"oracle-fractions/{k}")
    for shape, pinned in itertools.product(["sandwich", "five-factor"], [True, False]):
        for _ in range(4):
            table = _table(shape, k, rng, fractions=True)
            assert_agrees(_pair_system(table, *_bounds(table, rng, pinned)))


# Hypothesis systems: Fraction constants, plain variables that appear only in
# sum_ge rows (so the origin cannot reach them), and variables that appear
# only in a lower bound.

scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3)),
)


@st.composite
def systems(draw):
    xs = [VarId("x", 0, j) for j in range(draw(st.integers(1, 4)))]
    ys = [VarId("y", 0, j) for j in range(draw(st.integers(1, 4)))]
    sys = ConstraintSystem()
    for _ in range(draw(st.integers(0, 8))):
        x, y = draw(st.sampled_from(xs)), draw(st.sampled_from(ys))
        pair = (x, y) if draw(st.booleans()) else (y, x)
        if draw(st.integers(0, 3)):
            sys.add_sum_ge(*pair, draw(scalars))
        else:
            sys.add_sum_eq(*pair, draw(scalars))
    named = sys.variables() + draw(st.lists(st.sampled_from(xs + ys), max_size=2))
    for v in draw(st.permutations(named)):
        sys.set_lower(v, draw(scalars))
    return sys


@settings(max_examples=300, deadline=None)
@given(systems())
def test_hypothesis_systems_agree(sys):
    assert_agrees(sys)


def test_unreached_plain_variables_take_their_least_value():
    x1, x2, y1, y2 = VarId("x", 0, 0), VarId("x", 0, 1), VarId("y", 0, 0), VarId("y", 0, 1)
    sys = ConstraintSystem()
    sys.add_sum_ge(x1, y1, Fraction(7, 2))
    sys.add_sum_ge(x1, y2, 1)
    sys.add_sum_ge(x2, y2, Fraction(5, 2))
    sys.add_sum_eq(x2, y1, 4)
    for v, b in ((x1, 0), (x2, -3), (y1, Fraction(1, 2)), (y2, Fraction(-1, 2))):
        sys.set_lower(v, b)
    got = assert_agrees(sys)
    assert got == {y1: Fraction(1, 2), y2: Fraction(-1, 2), x1: 3, x2: Fraction(7, 2)}
    assert type(got[x1]) is int


def test_missing_lower_bound_message_agrees():
    x1, y1, y2 = VarId("x", 0, 0), VarId("y", 0, 0), VarId("y", 0, 1)
    sys = ConstraintSystem()
    sys.add_sum_ge(x1, y1, 1)
    sys.add_sum_eq(x1, y2, 1)
    sys.set_lower(x1, 0)
    messages = []
    for solve in (solve_feasible_min, constraints.solve_feasible_min):
        with pytest.raises(ValueError) as err:
            solve(sys)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "variable y11 has no lower bound"
