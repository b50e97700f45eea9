"""Golden self-checks: recorded inputs in, recorded values out.

Each check recomputes one published worked example from fixtures.py and
compares exactly.  run_all() returns (name, ok, detail) rows; the CLI's
selftest subcommand prints them and fails if any row fails.
"""

from __future__ import annotations

import random
from typing import Callable

from . import fixtures as fx
from .families import PolyFamily
from .marginal import (
    _solve_pair,
    five_factor_residual,
    max_possible_matrix,
    render_two_sided_constraints,
    residual_right,
    two_sided_residual,
)
from .matrix import make_poly, mat_add, mat_mul, mat_prod, poly_eval
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


def _agree(ok_detail: str, *rows) -> tuple[bool, str]:
    """(True, ok_detail) when every (label, recomputed, recorded) row
    agrees, else (False, detail) naming the first row that differs."""
    for label, got, recorded in rows:
        if got != recorded:
            return False, f"{label}: got {got!r}, recorded {recorded!r}"
    return True, ok_detail


def _poly_rows(a, b, *recorded):
    """Rows for the four recorded (coefficients, value) polynomial values
    p₁, q₁, p₂, q₂: the p's over A, the q's over B."""
    return [
        (f"polynomial value {k}", poly_eval(make_poly(MIN, coeffs), base), value)
        for k, (base, (coeffs, value)) in enumerate(zip((a, b, a, b), recorded))
    ]


def _check_principal_solution():
    star = residual_right(fx.RES_A)
    return _agree("3x3 principal solution reproduced", ("principal solution", star, fx.RES_XSTAR))


def _check_cap_matrix():
    cap = max_possible_matrix(residual_right(fx.RES_A), fx.RES_CAP)
    return _agree("cap matrix at l=100 reproduced", ("cap matrix", cap, fx.RES_XHAT))


def _check_recorded_samples():
    star = residual_right(fx.RES_A)
    cap = max_possible_matrix(star, fx.RES_CAP)
    # over min-plus ⊕ is the entrywise min, so X* <= X <= cap reads as
    # X* ⊕ X = X* and X ⊕ cap = X
    return _agree(
        "3 recorded samples solve and sit inside [X*, cap]",
        *(
            row
            for k, x in enumerate(fx.RES_SAMPLES)
            for row in (
                (f"sample {k}: A⊗X = A", mat_mul(fx.RES_A, x), fx.RES_A),
                (f"sample {k} inside [X*, cap]", (mat_add(star, x), mat_add(x, cap)), (star, x)),
            )
        ),
    )


def _check_defining_example():
    a = fx.DEF3_A
    return _agree(
        "both product solutions and the additive solution verify",
        ("first solution: A⊗C = A", mat_mul(a, fx.DEF3_C1), a),
        ("second solution: A⊗C = A", mat_mul(a, fx.DEF3_C2), a),
        ("additive solution: A⊕X = A", mat_add(a, fx.DEF3_ADDITIVE_X), a),
    )


def _check_pair_constraints():
    lines = render_two_sided_constraints(fx.BIL_A)
    return _agree("16 constraint lines reproduced", ("constraint lines", lines, fx.BIL_CONSTRAINTS))


def _pair_row(table, h, r, s, expected):
    """The pair solve of the recorded bounds R, S, pinned at h on their
    diagonals, against the recorded pair."""
    return ("pair solve", _solve_pair(table, h, r.rows, s.rows)[:2], expected)


def _check_pair_solution():
    a, x, y = fx.BIL_A, fx.BIL_X, fx.BIL_Y
    return _agree(
        "the pair solve gives the canonical pair; sandwich holds, one-sided does not",
        _pair_row(two_sided_residual(a), 3, fx.BIL_R, fx.BIL_S, (x, y)),
        ("X⊗A⊗Y = A", mat_prod(MIN, 2, [x, a, y]), a),
        ("X⊗A = A", mat_mul(x, a) == a, False),
        ("A⊗Y = A", mat_mul(a, y) == a, False),
    )


def _check_five_factor_table():
    table = five_factor_residual(fx.FF_A, fx.FF_B, fx.FF_C)
    return _agree(
        "9x9 bound table, zero pairs and projections reproduced",
        ("three-factor product", table.product, fx.FF_D),
        ("9x9 bound table", table.block_matrix(), fx.FF_BLOCK_TENSOR),
        ("zero pairs", frozenset((p + 1, r + 1) for p, r in table.zero_pairs),
         fx.FF_ZERO_PAIRS_1BASED),
        ("zero-pair projections", (table.px, table.py), (frozenset({0, 1}),) * 2),
    )


def _check_five_factor_solution():
    a, b, c, d = fx.FF_A, fx.FF_B, fx.FF_C, fx.FF_D
    x, y = fx.FF_X, fx.FF_Y
    return _agree(
        "the pair solve gives the canonical pair; only the full chain is preserved",
        _pair_row(five_factor_residual(a, b, c), -10, fx.FF_R, fx.FF_S, (x, y)),
        ("A⊗X⊗B⊗Y⊗C = A⊗B⊗C", mat_prod(MIN, 3, [a, x, b, y, c]), d),
        ("A⊗X = A", mat_mul(a, x) == a, False),
        ("X⊗B = B", mat_mul(x, b) == b, False),
        ("B⊗Y = B", mat_mul(b, y) == b, False),
        ("Y⊗C = C", mat_mul(y, c) == c, False),
        ("A⊗X⊗B = A⊗B", mat_prod(MIN, 3, [a, x, b]) == mat_mul(a, b), False),
        ("X⊗B⊗Y = B", mat_prod(MIN, 3, [x, b, y]) == b, False),
        ("B⊗Y⊗C = B⊗C", mat_prod(MIN, 3, [b, y, c]) == mat_mul(b, c), False),
    )


def _check_one_sided_replay():
    params = fx.builtin_params("one-sided-3x3")
    t = run_protocol_one_sided(params, random.Random(params.seed))
    return _agree(
        "4 recorded polynomial values reproduced; replayed keys agree",
        *_poly_rows(fx.OS_A, fx.OS_B, (fx.OS_P1_COEFFS, fx.OS_P1), (fx.OS_Q1_COEFFS, fx.OS_Q1),
                    (fx.OS_P2_COEFFS, fx.OS_P2), (fx.OS_Q2_COEFFS, fx.OS_Q2)),
        ("replayed keys agree", t.agreed, True),
    )


def _check_sandwich_replay():
    params = fx.builtin_params("sandwich4x4")
    t = run_protocol_sandwich(params, random.Random(params.seed))
    return _agree(
        "messages and shared key of the 4x4 run reproduced",
        *_poly_rows(fx.SW_A, fx.SW_B, (fx.SW_P1_COEFFS, fx.SW_P1), (fx.SW_Q1_COEFFS, fx.SW_Q1),
                    (fx.SW_P2_COEFFS, fx.SW_P2), (fx.SW_Q2_COEFFS, fx.SW_Q2)),
        ("first message", t.message("u"), fx.SW_U),
        ("second message", t.message("v"), fx.SW_V),
        ("replayed keys", (t.key_a, t.key_b), (fx.SW_K, fx.SW_K)),
    )


def _check_two_block_replay():
    params = fx.builtin_params("two-block-3x3")
    t = run_protocol_multiblock(params, random.Random(params.seed))
    return _agree(
        "message pairs and shared key of the two-block run reproduced",
        ("first message pair", t.message("u"), (fx.TB_U1, fx.TB_U2)),
        ("second message pair", t.message("v"), (fx.TB_V1, fx.TB_V2)),
        ("replayed keys", (t.key_a, t.key_b), (fx.TB_K, fx.TB_K)),
    )


def _check_interval_compression():
    s = fx.compression_box_set()
    data = encode_marginal_set(s, encoding="interval")
    obj = from_canonical_bytes(data)
    back = decode_marginal_set(data)
    return _agree(
        "10-matrix box encodes to the recorded interval and decodes back",
        ("encoding", obj.get("encoding"), "interval"),
        ("interval body", obj.get("box"), fx.CMP_BOX_FORM),
        ("decoded matrices", (set(back.tuples), len(back)), (set(s.tuples), len(s))),
    )


def _check_delta_compression():
    s = fx.compression_delta_set()
    data = encode_marginal_set(s, encoding="delta")
    obj = from_canonical_bytes(data)
    return _agree(
        "3-matrix chain encodes to the recorded base+diffs and decodes back",
        ("encoding", obj.get("encoding"), "delta"),
        ("delta base", obj.get("base"), fx.CMP_DELTA_BASE),
        ("delta diffs", obj.get("diffs"), fx.CMP_DELTA_DIFFS),
        ("decoded chain", decode_marginal_set(data).tuples, s.tuples),
    )


def _check_wire_roundtrip():
    left, right = PolyFamily(fx.BIL_X, 2, -10, 10), PolyFamily(fx.BIL_Y, 2, -10, 10)
    params = ProtocolParams(MIN, 2, (fx.BIL_A,), (left,), (right,), seed=7)
    data = encode_transcript(run_sidelnikov(params, random.Random(params.seed)))
    again = encode_transcript(decode_transcript(data))
    return _agree("transcript decodes and re-encodes byte-identically", ("re-encoded", again, data))


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
