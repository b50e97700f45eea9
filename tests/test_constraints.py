"""Solver checks: hand-worked goldens plus agreement with a Floyd-Warshall
negative-cycle oracle built here from scratch. Certificates are validated
by direct substitution, never by re-running the solver."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg.constraints import (
    ConstraintSystem,
    Infeasible,
    VarId,
    solve_feasible_min,
)

X11 = VarId("x", 0, 0)
X12 = VarId("x", 0, 1)
Y11 = VarId("y", 0, 0)
Y21 = VarId("y", 1, 0)


def test_varid_rendering_is_one_based():
    assert str(VarId("x", 1, 2)) == "x23"
    assert str(Y11) == "y11"


def test_same_side_sum_rejected():
    sys = ConstraintSystem()
    with pytest.raises(ValueError):
        sys.add_sum_ge(X11, X12, 0)
    with pytest.raises(ValueError):
        sys.add_sum_eq(Y11, Y21, 0)


def test_unbounded_variable_rejected():
    sys = ConstraintSystem()
    sys.add_sum_ge(X11, Y11, 5)
    sys.set_lower(X11, 0)
    with pytest.raises(ValueError):
        solve_feasible_min(sys)


def test_canonical_point_small_system():
    sys = ConstraintSystem()
    sys.add_sum_ge(X11, Y11, 5)
    sys.set_lower(X11, 0)
    sys.set_lower(Y11, 2)
    got = solve_feasible_min(sys)
    assert got == {X11: 3, Y11: 2}


def test_canonical_point_with_equality():
    sys = ConstraintSystem()
    sys.add_sum_eq(X11, Y11, 5)
    sys.add_sum_ge(X12, Y11, 3)
    sys.set_lower(X11, 0)
    sys.set_lower(X12, 0)
    sys.set_lower(Y11, 1)
    got = solve_feasible_min(sys)
    assert got == {Y11: 1, X11: 4, X12: 2}
    assert sys.check_assignment(got)


def test_argument_order_does_not_matter():
    a = ConstraintSystem()
    a.add_sum_ge(X11, Y11, 4)
    b = ConstraintSystem()
    b.add_sum_ge(Y11, X11, 4)
    assert a.sum_ge == b.sum_ge


def test_contradictory_pair_is_certified():
    sys = ConstraintSystem()
    sys.add_sum_eq(X11, Y11, 5)
    sys.add_sum_ge(X11, Y11, 7)
    sys.set_lower(X11, -100)
    sys.set_lower(Y11, -100)
    got = solve_feasible_min(sys)
    assert isinstance(got, Infeasible)
    assert got.total() < 0
    assert not got  # Infeasible is falsy on purpose


def test_lower_bounds_can_contradict_an_equality():
    sys = ConstraintSystem()
    sys.add_sum_eq(X11, Y11, 5)
    sys.set_lower(X11, 0)
    sys.set_lower(Y11, 10)
    got = solve_feasible_min(sys)
    assert isinstance(got, Infeasible)
    assert got.total() == -5


# ---------------------------------------------------------------------------
# Randomized agreement with an independent oracle.
#
# The reduction to difference constraints is rebuilt here by hand (potential
# 0 for the origin, +x for plain variables, -y for negated ones) and fed to
# Floyd-Warshall.  Feasible iff no negative diagonal.

_ORIGIN = "o"
_BIG = 10**9


def _reference_edges(sys):
    edges = []
    for v, b in sys.lower.items():
        if v.tag in sys.negated_tags:
            edges.append((_ORIGIN, v, -b))
        else:
            edges.append((v, _ORIGIN, -b))
    for x, y, c in sys.sum_ge:
        edges.append((x, y, -c))
    for x, y, c in sys.sum_eq:
        edges.append((x, y, -c))
        edges.append((y, x, c))
    return edges


def _oracle_feasible(sys) -> bool:
    edges = _reference_edges(sys)
    nodes = sorted({_ORIGIN} | {e[0] for e in edges} | {e[1] for e in edges}, key=str)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    d = [[_BIG] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for tail, head, w in edges:
        d[idx[tail]][idx[head]] = min(d[idx[tail]][idx[head]], w)
    for k, i, j in itertools.product(range(n), repeat=3):
        if d[i][k] + d[k][j] < d[i][j]:
            d[i][j] = d[i][k] + d[k][j]
    return all(d[i][i] >= 0 for i in range(n))


def _validate_certificate(sys, cert: Infeasible):
    allowed = set(_reference_edges(sys))
    m = len(cert.cycle)
    assert m > 0 and cert.total() < 0
    for i, edge in enumerate(cert.cycle):
        tail = edge.tail[1] if isinstance(edge.tail, tuple) else _ORIGIN
        head = edge.head[1] if isinstance(edge.head, tuple) else _ORIGIN
        assert (tail, head, edge.weight) in allowed, edge
        nxt = cert.cycle[(i + 1) % m]
        assert edge.head == nxt.tail, "certificate chain is not closed"


consts = st.integers(min_value=-6, max_value=6)


@st.composite
def systems(draw):
    xs = [VarId("x", 0, j) for j in range(draw(st.integers(1, 3)))]
    ys = [VarId("y", 0, j) for j in range(draw(st.integers(1, 3)))]
    sys = ConstraintSystem()
    for _ in range(draw(st.integers(1, 6))):
        pair = (draw(st.sampled_from(xs)), draw(st.sampled_from(ys)))
        if draw(st.booleans()):
            sys.add_sum_ge(*pair, draw(consts))
        else:
            sys.add_sum_eq(*pair, draw(consts))
    for v in sys.variables():
        sys.set_lower(v, draw(consts))
    return sys


@settings(max_examples=200)
@given(systems())
def test_solver_agrees_with_floyd_warshall(sys):
    got = solve_feasible_min(sys)
    if isinstance(got, Infeasible):
        assert not _oracle_feasible(sys)
        _validate_certificate(sys, got)
    else:
        assert _oracle_feasible(sys)
        assert sys.check_assignment(got)
        assert all(isinstance(v, int) for v in got.values())
