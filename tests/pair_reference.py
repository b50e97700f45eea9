"""The two-slot system written out in full, as the reference for the pair
solve: `_pair_system` builds the k⁴-row `ConstraintSystem` that
`marginal._solve_pair` solves from the k×k factors and the pin alone, and
`_assignment_to_pair` reads `solve_feasible_min`'s assignment back as the
pair (X, Y).  The pins are lower bounds here: R_pp = h on px and
S_rr = -h on py, which the zero-pair equalities then make exact.
`min_plus_maps` is the oracles' own way into min-plus coordinates, so that
they do not reuse the library boundary they check.  A support module for
the oracle tests; it holds no tests.
"""

from __future__ import annotations

import itertools
from operator import neg

from tropmarg.constraints import ConstraintSystem, VarId
from tropmarg.marginal import BoundTable
from tropmarg.matrix import Matrix, dual
from tropmarg.semiring import SemiringKind

MIN = SemiringKind.MIN_PLUS


def min_plus_maps(kind: SemiringKind):
    """(flip, flip_cap): a max-plus matrix crosses into min-plus as its dual
    and a cap is negated; both maps are their own inverses.  Min-plus
    crosses unchanged."""
    if kind is MIN:
        return (lambda x: x), (lambda x: x)
    return dual, neg


def _pair_system(
    table: BoundTable, r: list[list[int]], s: list[list[int]]
) -> ConstraintSystem:
    """The two-slot system as an explicit ConstraintSystem: the full
    inequality grid x_pq + y_rs >= bound(p, q, r, s) = E[p][s] - B[q][r], the
    zero pairs as diagonal equalities, and the drawn lower bounds, pinned
    as the sampler pins them.  The sampler solves it without building it
    (marginal._solve_pair); solve_feasible_min on this form is the
    reference for the worked instances and the tests."""
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
            MIN,
            tuple(
                tuple(assignment[VarId(tag, i, j)] for j in range(n))
                for i in range(n)
            ),
        )
        for tag in ("x", "y")
    )
