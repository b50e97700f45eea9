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
from typing import Union

from .semiring import Scalar, SelfCheckError, as_scalar, is_finite


@dataclass(frozen=True, order=True)
class VarId:
    """One scalar variable, addressed as tag + matrix position (0-based)."""

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
