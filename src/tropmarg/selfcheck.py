"""Golden self-checks: recorded inputs in, recorded values out.

Each check recomputes one published worked example from fixtures.py and
compares exactly.  run_all() returns (name, ok, detail) rows; the CLI's
selftest subcommand prints them and fails if any row fails.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from . import fixtures as fx
from .constraints import ConstraintSystem, Infeasible, VarId, solve_feasible_min
from .families import PolyFamily
from .marginal import (
    BoundTable,
    _solve_pair,
    five_factor_residual,
    max_possible_matrix,
    render_two_sided_constraints,
    residual_right,
    two_sided_residual,
)
from .matrix import Matrix, make_poly, mat_add, mat_mul, mat_prod, poly_eval
from .protocols import (
    ProtocolParams,
    run_protocol_multiblock,
    run_protocol_one_sided,
    run_protocol_sandwich,
    run_sidelnikov,
)
from .semiring import SemiringKind
from .wire import (
    decode_marginal_set,
    decode_transcript,
    encode_marginal_set,
    encode_transcript,
    from_canonical_bytes,
)

MIN = SemiringKind.MIN_PLUS


def _check_principal_solution():
    star = residual_right(fx.RES_A)
    if star != fx.RES_XSTAR:
        return False, f"principal solution mismatch: {star!r}"
    return True, "3x3 principal solution reproduced"


def _check_cap_matrix():
    star = residual_right(fx.RES_A)
    cap = max_possible_matrix(star, fx.RES_CAP)
    if cap != fx.RES_XHAT:
        return False, f"cap matrix mismatch: {cap!r}"
    return True, "cap matrix at l=100 reproduced"


def _check_recorded_samples():
    star = residual_right(fx.RES_A)
    cap = max_possible_matrix(star, fx.RES_CAP)
    for k, x in enumerate(fx.RES_SAMPLES):
        if mat_mul(fx.RES_A, x) != fx.RES_A:
            return False, f"recorded sample {k} does not solve A⊗X = A"
        for i in range(3):
            for j in range(3):
                if not star.rows[i][j] <= x.rows[i][j] <= cap.rows[i][j]:
                    return False, f"recorded sample {k} leaves the box at {(i, j)}"
    return True, "3 recorded samples solve and sit inside [X*, cap]"


def _check_defining_example():
    a = fx.DEF3_A
    if mat_mul(a, fx.DEF3_C1) != a:
        return False, "first recorded solution fails A⊗C = A"
    if mat_mul(a, fx.DEF3_C2) != a:
        return False, "second recorded solution fails A⊗C = A"
    if mat_add(a, fx.DEF3_ADDITIVE_X) != a:
        return False, "recorded additive solution fails A⊕X = A"
    return True, "both product solutions and the additive solution verify"


def _check_pair_constraints():
    lines = render_two_sided_constraints(fx.BIL_A)
    if lines != fx.BIL_CONSTRAINTS:
        return False, "rendered constraint list differs from the recorded 16 lines"
    return True, "16 constraint lines reproduced"


def _pair_system(
    table: BoundTable, r: list[list[int]], s: list[list[int]]
) -> ConstraintSystem:
    """The two-slot system as an explicit ConstraintSystem: the full
    inequality grid x_pq + y_rs >= bound(p, q, r, s) = E[p][s] - B[q][r], the
    zero pairs as diagonal equalities, and the drawn lower bounds.  The
    sampler solves it without building it (marginal._solve_pair);
    solve_feasible_min on this form is the reference for the worked
    instances and the tests."""
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


def _check_canonical_pair(table, r, s, expected):
    """Both the general solver on the full system and the sampler's pair
    solve must give the recorded pair for the recorded bounds; returns the
    failure, or None."""
    r, s = [list(row) for row in r.rows], [list(row) for row in s.rows]
    solved = solve_feasible_min(_pair_system(table, r, s))
    if isinstance(solved, Infeasible):
        return "recorded bounds came out infeasible"
    pair = _assignment_to_pair(solved, table.product.dim)
    if pair != expected:
        return f"canonical pair differs: {pair[0]!r}, {pair[1]!r}"
    solved = _solve_pair(table, r, s)
    if solved is None or solved[:2] != expected:
        return f"sampler's pair solve differs: {solved!r}"
    return None


def _check_pair_solution():
    a = fx.BIL_A
    fail = _check_canonical_pair(
        two_sided_residual(a), fx.BIL_R, fx.BIL_S, (fx.BIL_X, fx.BIL_Y)
    )
    if fail:
        return False, fail
    x, y = fx.BIL_X, fx.BIL_Y
    if mat_prod(MIN, 2, [x, a, y]) != a:
        return False, "X⊗A⊗Y != A"
    if mat_mul(x, a) == a or mat_mul(a, y) == a:
        return False, "a one-sided product unexpectedly equals A"
    return True, "both solves give the canonical pair; sandwich holds, one-sided does not"


def _check_five_factor_table():
    table = five_factor_residual(fx.FF_A, fx.FF_B, fx.FF_C)
    if table.product != fx.FF_D:
        return False, "three-factor product mismatch"
    if table.block_matrix() != fx.FF_BLOCK_TENSOR:
        return False, "9x9 bound table mismatch"
    pairs_1based = frozenset((p + 1, r + 1) for p, r in table.zero_pairs)
    if pairs_1based != fx.FF_ZERO_PAIRS_1BASED:
        return False, f"zero pairs mismatch: {sorted(pairs_1based)}"
    if table.px != frozenset({0, 1}) or table.py != frozenset({0, 1}):
        return False, "zero-pair projections mismatch"
    return True, "9x9 bound table, zero pairs and projections reproduced"


def _check_five_factor_solution():
    a, b, c, d = fx.FF_A, fx.FF_B, fx.FF_C, fx.FF_D
    fail = _check_canonical_pair(
        five_factor_residual(a, b, c), fx.FF_R, fx.FF_S, (fx.FF_X, fx.FF_Y)
    )
    if fail:
        return False, fail
    x, y = fx.FF_X, fx.FF_Y
    if mat_prod(MIN, 3, [a, x, b, y, c]) != d:
        return False, "A⊗X⊗B⊗Y⊗C != A⊗B⊗C"
    ab = mat_mul(a, b)
    bc = mat_mul(b, c)
    strict = (
        (mat_mul(a, x), a, "A⊗X = A"),
        (mat_mul(x, b), b, "X⊗B = B"),
        (mat_mul(b, y), b, "B⊗Y = B"),
        (mat_mul(y, c), c, "Y⊗C = C"),
        (mat_prod(MIN, 3, [a, x, b]), ab, "A⊗X⊗B = A⊗B"),
        (mat_prod(MIN, 3, [x, b, y]), b, "X⊗B⊗Y = B"),
        (mat_prod(MIN, 3, [b, y, c]), bc, "B⊗Y⊗C = B⊗C"),
    )
    for got, ref, label in strict:
        if got == ref:
            return False, f"{label} unexpectedly holds"
    return True, "both solves give the canonical pair; only the full chain is preserved"


def _check_one_sided_replay():
    evals = (
        (fx.OS_P1_COEFFS, fx.OS_A, fx.OS_P1),
        (fx.OS_Q1_COEFFS, fx.OS_B, fx.OS_Q1),
        (fx.OS_P2_COEFFS, fx.OS_A, fx.OS_P2),
        (fx.OS_Q2_COEFFS, fx.OS_B, fx.OS_Q2),
    )
    for k, (coeffs, base, expected) in enumerate(evals):
        if poly_eval(make_poly(MIN, coeffs), base) != expected:
            return False, f"recorded polynomial value {k} differs"
    params = fx.builtin_params("one-sided-3x3")
    t = run_protocol_one_sided(params, random.Random(params.seed))
    if not t.agreed:
        return False, "replayed keys disagree"
    return True, "4 recorded polynomial values reproduced; replayed keys agree"


def _check_sandwich_replay():
    evals = (
        (fx.SW_P1_COEFFS, fx.SW_A, fx.SW_P1),
        (fx.SW_Q1_COEFFS, fx.SW_B, fx.SW_Q1),
        (fx.SW_P2_COEFFS, fx.SW_A, fx.SW_P2),
        (fx.SW_Q2_COEFFS, fx.SW_B, fx.SW_Q2),
    )
    for k, (coeffs, base, expected) in enumerate(evals):
        if poly_eval(make_poly(MIN, coeffs), base) != expected:
            return False, f"recorded polynomial value {k} differs"
    params = fx.builtin_params("sandwich4x4")
    t = run_protocol_sandwich(params, random.Random(params.seed))
    if t.message("u") != fx.SW_U:
        return False, "first message differs from the recorded run"
    if t.message("v") != fx.SW_V:
        return False, "second message differs from the recorded run"
    if t.key_a != fx.SW_K or t.key_b != fx.SW_K:
        return False, "replayed key differs from the recorded run"
    return True, "messages and shared key of the 4x4 run reproduced"


def _check_two_block_replay():
    params = fx.builtin_params("two-block-3x3")
    t = run_protocol_multiblock(params, random.Random(params.seed))
    if t.message("u") != (fx.TB_U1, fx.TB_U2):
        return False, "first message pair differs from the recorded run"
    if t.message("v") != (fx.TB_V1, fx.TB_V2):
        return False, "second message pair differs from the recorded run"
    if t.key_a != fx.TB_K or t.key_b != fx.TB_K:
        return False, "replayed key differs from the recorded run"
    return True, "message pairs and shared key of the two-block run reproduced"


def _check_interval_compression():
    s = fx.compression_box_set()
    data = encode_marginal_set(s, encoding="interval")
    obj = from_canonical_bytes(data)
    if obj.get("encoding") != "interval":
        return False, f"interval encoding not taken: {obj.get('encoding')!r}"
    if obj.get("box") != fx.CMP_BOX_FORM:
        return False, f"interval body differs: {obj.get('box')!r}"
    back = decode_marginal_set(data)
    if set(back.tuples) != set(s.tuples) or len(back) != len(s):
        return False, "interval decode does not reproduce the ten matrices"
    return True, "10-matrix box encodes to the recorded interval and decodes back"


def _check_delta_compression():
    s = fx.compression_delta_set()
    data = encode_marginal_set(s, encoding="delta")
    obj = from_canonical_bytes(data)
    if obj.get("encoding") != "delta":
        return False, f"delta encoding not taken: {obj.get('encoding')!r}"
    if obj.get("base") != fx.CMP_DELTA_BASE:
        return False, f"delta base differs: {obj.get('base')!r}"
    if obj.get("diffs") != fx.CMP_DELTA_DIFFS:
        return False, f"delta diffs differ: {obj.get('diffs')!r}"
    back = decode_marginal_set(data)
    if back.tuples != s.tuples:
        return False, "delta decode does not reproduce the chain in order"
    return True, "3-matrix chain encodes to the recorded base+diffs and decodes back"


def _check_wire_roundtrip():
    params = ProtocolParams(
        kind=MIN,
        dim=2,
        publics=(fx.BIL_A,),
        left_families=(PolyFamily(fx.BIL_X, 2, -10, 10),),
        right_families=(PolyFamily(fx.BIL_Y, 2, -10, 10),),
        seed=7,
    )
    t = run_sidelnikov(params, random.Random(params.seed))
    data = encode_transcript(t)
    again = encode_transcript(decode_transcript(data))
    if data != again:
        return False, "transcript re-serialization is not byte-identical"
    return True, "transcript decodes and re-encodes byte-identically"


_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("principal-right-solution", _check_principal_solution),
    ("cap-matrix", _check_cap_matrix),
    ("recorded-one-sided-samples", _check_recorded_samples),
    ("defining-example", _check_defining_example),
    ("pair-constraint-display", _check_pair_constraints),
    ("pair-canonical-solution", _check_pair_solution),
    ("five-factor-table", _check_five_factor_table),
    ("five-factor-canonical-solution", _check_five_factor_solution),
    ("one-sided-replay", _check_one_sided_replay),
    ("sandwich-replay", _check_sandwich_replay),
    ("two-block-replay", _check_two_block_replay),
    ("interval-compression", _check_interval_compression),
    ("delta-compression", _check_delta_compression),
    ("wire-roundtrip", _check_wire_roundtrip),
)


def run_all() -> list[tuple[str, bool, str]]:
    rows = []
    for name, fn in _CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failing row, not a crash of the suite
            ok, detail = False, f"{type(e).__name__}: {e}"
        rows.append((name, ok, detail))
    return rows
