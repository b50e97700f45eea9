"""Feasibility solver for two-variable sum constraints with lower bounds.

The systems handled here have shape

    u + v >= c        (u from the plain side, v from the negated side)
    u + v  = c
    u >= b            (every variable carries a lower bound)

Substituting v' = -v for every negated-side variable turns each sum into a
difference constraint, so feasibility reduces to the absence of a negative
cycle in a weighted graph and a feasible point falls out of single-source
shortest paths.  This subclass is integral: integer constants give integer
assignments, with no rounding step.

Infeasibility comes with a machine-checkable certificate: a closed chain of
constraints whose weights sum to a negative number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .semiring import Scalar, SelfCheckError, as_scalar, is_finite


class VarId(NamedTuple):
    """One scalar variable, addressed as tag + matrix position (0-based).

    A NamedTuple, so hashing and comparison run in C; it orders and hashes
    exactly as the field tuple (tag, row, col)."""

    tag: str
    row: int
    col: int

    def __str__(self) -> str:
        return f"{self.tag}{self.row + 1}{self.col + 1}"


@dataclass(frozen=True)
class Edge:
    """Difference-graph edge: value(head) <= value(tail) + weight."""

    tail: object
    head: object
    weight: Union[int, Fraction]
    reason: str


@dataclass(frozen=True)
class Infeasible:
    """Certificate of infeasibility.

    `cycle` is a closed chain of edges; each edge restates one input
    constraint, and the weights sum to a negative number, which is a direct
    contradiction.  total() recomputes that sum so tests can verify the
    certificate without trusting the solver.
    """

    cycle: tuple[Edge, ...]

    def total(self):
        return sum(e.weight for e in self.cycle)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return False


class ConstraintSystem:
    """Mutable builder for one feasibility problem.

    negated_tags declares which variable tags sit on the negated side of the
    reduction (the Y side of the sampling algorithms).  Every sum constraint
    must pair one plain variable with one negated variable; same-side sums
    fall outside the difference-constraint subclass and are rejected.
    """

    def __init__(self, negated_tags=("y",)):
        self.negated_tags = frozenset(negated_tags)
        self.sum_ge: list[tuple[VarId, VarId, Scalar]] = []
        self.sum_eq: list[tuple[VarId, VarId, Scalar]] = []
        self.lower: dict[VarId, Scalar] = {}

    def _check_pair(self, u: VarId, v: VarId) -> tuple[VarId, VarId]:
        """Return (plain, negated), rejecting same-side pairs."""
        u_neg = u.tag in self.negated_tags
        v_neg = v.tag in self.negated_tags
        if u_neg == v_neg:
            raise ValueError(f"sum constraint needs one variable per side: {u}, {v}")
        return (v, u) if u_neg else (u, v)

    @staticmethod
    def _check_const(c) -> Scalar:
        c = as_scalar(c)
        if not is_finite(c):
            raise ValueError("constraint constants must be finite")
        return c

    def add_sum_ge(self, u: VarId, v: VarId, c) -> None:
        x, y = self._check_pair(u, v)
        self.sum_ge.append((x, y, self._check_const(c)))

    def add_sum_eq(self, u: VarId, v: VarId, c) -> None:
        x, y = self._check_pair(u, v)
        self.sum_eq.append((x, y, self._check_const(c)))

    def set_lower(self, v: VarId, b) -> None:
        self.lower[v] = self._check_const(b)

    def variables(self) -> list[VarId]:
        seen: dict[VarId, None] = {}
        for x, y, _ in self.sum_ge + self.sum_eq:
            seen.setdefault(x)
            seen.setdefault(y)
        for v in self.lower:
            seen.setdefault(v)
        return list(seen)

    def check_assignment(self, assignment: dict[VarId, Scalar]) -> bool:
        """Direct substitution check; used after every solve and by tests."""
        for x, y, c in self.sum_ge:
            if assignment[x] + assignment[y] < c:
                return False
        for x, y, c in self.sum_eq:
            if assignment[x] + assignment[y] != c:
                return False
        for v, b in self.lower.items():
            if assignment[v] < b:
                return False
        return True


_ORIGIN = "origin"


def solve_feasible_min(sys: ConstraintSystem) -> Union[dict, Infeasible]:
    """Canonical extreme feasible assignment, or an Infeasible certificate.

    The negated-side variables come out pointwise minimal over all feasible
    assignments; each plain-side variable then takes its least value
    compatible with those.  Deterministic, so golden tests can rely on it.

    Nodes are ints: 0 is the origin, and the variables of sys.lower take
    1, 2, ... in order (the z node of a negated variable, the x node of a
    plain one).  The edges are parallel tail/head/weight lists in a fixed
    order: the lower bounds, then sum_ge, then each sum_eq as a forward and
    a backward edge.  Edge objects are built only for the cycle of a
    certificate.
    """
    variables = sys.variables()
    lower = sys.lower
    negated = sys.negated_tags
    index = {v: i for i, v in enumerate(lower, 1)}
    for v in variables:
        if v not in index:
            raise ValueError(f"variable {v} has no lower bound")

    tails, heads, weights = [], [], []
    for i, (v, b) in enumerate(lower.items(), 1):
        if v.tag in negated:
            # -v <= -b, anchored at the origin.
            tails.append(0)
            heads.append(i)
        else:
            tails.append(i)
            heads.append(0)
        weights.append(-b)
    for x, y, c in sys.sum_ge:
        tails.append(index[x])
        heads.append(index[y])
        weights.append(-c)
    for x, y, c in sys.sum_eq:
        xi, yi = index[x], index[y]
        tails += (xi, yi)
        heads += (yi, xi)
        weights += (-c, c)
    # (number, tail, head, weight) tuples: each pass iterates this list,
    # which is faster than zipping the four sequences again.
    edges = list(zip(range(len(tails)), tails, heads, weights))
    n_nodes = len(index) + 1

    # Phase 1: negative-cycle detection with every node as a source (all
    # distances start at 0).  A negative cycle anywhere is a contradictory
    # constraint subset, reachable or not.
    dist: list = [0] * n_nodes
    pred: list = [None] * n_nodes
    last_relaxed = -1
    for _ in range(n_nodes):
        last_relaxed = -1
        for e, t, h, w in edges:
            nd = dist[t] + w
            if nd < dist[h]:
                dist[h] = nd
                pred[h] = e
                last_relaxed = h
        if last_relaxed < 0:
            break
    if last_relaxed >= 0:
        return Infeasible(_extract_cycle(sys, tails, pred, last_relaxed, n_nodes))

    # Phase 2: distances from the origin give the extreme assignment.
    dist = [None] * n_nodes
    dist[0] = 0
    for _ in range(n_nodes - 1):
        changed = False
        for _e, t, h, w in edges:
            d = dist[t]
            if d is None:
                continue
            nd = d + w
            dh = dist[h]
            if dh is None or nd < dh:
                dist[h] = nd
                changed = True
        if not changed:
            break

    assignment: dict[VarId, Scalar] = {}
    for v in variables:
        if v.tag in negated:
            d = dist[index[v]]
            if d is None:
                raise SelfCheckError("negated variable must be bound below")
            assignment[v] = as_scalar(-d)
    # A plain variable the origin cannot reach takes the least value its
    # sum_ge rows allow, lifted from its lower bound in one pass.
    least = {
        v: lower[v]
        for v in variables
        if v.tag not in negated and dist[index[v]] is None
    }
    for x, y, c in sys.sum_ge:
        if x in least:
            need = c - assignment[y]
            if need > least[x]:
                least[x] = need
    for v in variables:
        if v.tag not in negated:
            d = dist[index[v]]
            assignment[v] = as_scalar(least[v] if d is None else d)

    if not sys.check_assignment(assignment):
        raise SelfCheckError("solver produced an invalid point")
    return assignment


def _edge(sys: ConstraintSystem, e: int) -> Edge:
    """Edge number e of the order solve_feasible_min relaxes them in."""
    n_lower, n_ge = len(sys.lower), len(sys.sum_ge)
    if e < n_lower:
        v, b = list(sys.lower.items())[e]
        if v.tag in sys.negated_tags:
            return Edge(_ORIGIN, ("z", v), -b, f"{v} >= {b}")
        return Edge(("x", v), _ORIGIN, -b, f"{v} >= {b}")
    if e < n_lower + n_ge:
        x, y, c = sys.sum_ge[e - n_lower]
        return Edge(("x", x), ("z", y), -c, f"{x} + {y} >= {c}")
    x, y, c = sys.sum_eq[(e - n_lower - n_ge) // 2]
    if (e - n_lower - n_ge) % 2 == 0:
        return Edge(("x", x), ("z", y), -c, f"{x} + {y} = {c}")
    return Edge(("z", y), ("x", x), c, f"{x} + {y} = {c}")


def _extract_cycle(
    sys: ConstraintSystem, tails: list, pred: list, start: int, n_nodes: int
) -> tuple[Edge, ...]:
    # start was relaxed on the final pass, so it is reachable from a negative
    # cycle; n predecessor hops land strictly inside that cycle.
    node = start
    for _ in range(n_nodes):
        node = tails[pred[node]]
    loop = []
    cur = node
    while True:
        e = pred[cur]
        loop.append(e)
        cur = tails[e]
        if cur == node:
            break
    loop.reverse()
    cycle = tuple(_edge(sys, e) for e in loop)
    if not sum(e.weight for e in cycle) < 0:
        raise SelfCheckError("extracted cycle is not negative")
    return cycle

