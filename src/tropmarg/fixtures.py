"""Worked-example inputs and their published values, as Python literals.

Everything here is data: the matrices behind the golden checks in
selfcheck.py, plus ready-made protocol parameter bundles (including scripted
replays that pin secrets, published sets and tuple choices to the recorded
runs).  The CLI exposes the bundles as builtin:NAME parameter sources.
"""

from __future__ import annotations

from .families import LdpFamily, PolyFamily
from .marginal import MarginalSet, additive_word, make_marginal_set
from .matrix import Matrix, make_matrix
from .protocols import ProtocolParams, ProtocolScript
from .semiring import SemiringKind

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS


def _m(rows) -> Matrix:
    return make_matrix(MIN, rows)


# --------------------------------------------------------------------------
# Defining example: right-marginal sets of a 3x3 matrix, plus an additive one

DEF3_A = _m([[3, 7, 4], [5, 12, 7], [6, 5, 11]])
DEF3_C1 = _m([[0, 7, 5], [1, 0, 6], [-1, 5, 0]])
DEF3_C2 = _m([[0, 7, 5], [1, 0, 6], [0, 5, 0]])
DEF3_ADDITIVE_X = _m([[5, 12, 10], [25, 12, 8], [59, 23, 12]])


# --------------------------------------------------------------------------
# Residuation golden: principal solution, cap matrix, three sampled outputs

RES_A = _m([[0, 85, -6], [-72, 53, -97], [-72, 52, -69]])
RES_XSTAR = _m([[0, 125, 3], [-85, 0, -91], [25, 150, 0]])
RES_XHAT = _m([[0, 125, 100], [100, 0, 100], [100, 150, 0]])
RES_CAP = 100
RES_SAMPLES = (
    _m([[0, 125, 65], [29, 0, -51], [61, 150, 0]]),
    _m([[0, 125, 14], [29, 0, -91], [88, 150, 0]]),
    _m([[0, 125, 76], [20, 0, -68], [71, 150, 0]]),
)


# --------------------------------------------------------------------------
# Pair-system worked instance (2x2): constraints, bounds, canonical solution

BIL_A = _m([[3, 2], [1, 5]])
BIL_CONSTRAINTS = (
    "x11 + y11 = 0",
    "x11 + y12 >= -1",
    "x11 + y21 >= 1",
    "x11 + y22 = 0",
    "x12 + y11 >= 2",
    "x12 + y12 >= 1",
    "x12 + y21 >= -2",
    "x12 + y22 >= -3",
    "x21 + y11 >= -2",
    "x21 + y12 >= 2",
    "x21 + y21 >= -1",
    "x21 + y22 >= 3",
    "x22 + y11 = 0",
    "x22 + y12 >= 4",
    "x22 + y21 >= -4",
    "x22 + y22 = 0",
)
BIL_R = _m([[3, 9], [7, 3]])
BIL_S = _m([[-3, 4], [0, -3]])
BIL_X = _m([[3, 9], [7, 3]])
BIL_Y = _m([[-3, 4], [0, -3]])


# --------------------------------------------------------------------------
# Five-factor worked instance (3x3 triple)

FF_A = _m([[-4, 6, 2], [-2, -3, 10], [-2, -9, -5]])
FF_B = _m([[-4, -10, -3], [2, -2, 8], [4, -1, 6]])
FF_C = _m([[-9, 9, -2], [5, -2, -8], [3, 3, 8]])
FF_D = _m([[-17, -16, -22], [-15, -14, -20], [-16, -14, -20]])
FF_BLOCK_TENSOR = (
    (0, -6, -11, -6, -12, -17, -8, -14, -19),
    (6, 0, -5, -2, -8, -13, -3, -9, -14),
    (-1, -7, -12, -12, -18, -23, -10, -16, -21),
    (6, 1, -4, 0, -5, -10, -2, -7, -12),
    (12, 7, 2, 4, -1, -6, 3, -2, -7),
    (5, 0, -5, -6, -11, -16, -4, -9, -14),
    (2, -3, -8, -4, -9, -14, -6, -11, -16),
    (8, 3, -2, 0, -5, -10, -1, -6, -11),
    (1, -4, -9, -10, -15, -20, -8, -13, -18),
)
FF_ZERO_PAIRS_1BASED = frozenset({(1, 1), (1, 2), (2, 1)})
FF_R = _m([[-10, -4, -1], [1, -10, 0], [6, -1, -2]])
FF_S = _m([[10, 10, 3], [-9, 10, 0], [5, 0, 0]])
FF_X = _m([[-10, -4, -1], [1, -10, 0], [6, -1, -2]])
FF_Y = _m([[10, 10, 3], [16, 10, 5], [9, 3, 0]])


# --------------------------------------------------------------------------
# One-sided protocol run (3x3): secrets are polynomials, and the recorded
# polynomial values for the q's match evaluation at B (the run's printed
# final keys disagree with each other and are reproduced by no computation,
# so only recomputed quantities are pinned)

OS_A = _m([[54, 15, 33], [59, 87, 53], [9, 63, 80]])
OS_B = _m([[50, 11, 14], [16, 29, 33], [27, 86, 96]])
OS_W = _m([[54, -67, 35], [23, -7, -84], [9, 97, 33]])
OS_A_SQ = _m([[42, 69, 68], [62, 74, 92], [63, 24, 42]])
OS_B_SQ = _m([[27, 40, 44], [45, 27, 30], [77, 38, 41]])

OS_P1_COEFFS = (-69, -97, 60)
OS_Q1_COEFFS = (8, -93, 69)
OS_P2_COEFFS = (-11, 2, -88)
OS_Q2_COEFFS = (-33, 37, -41)

OS_P1 = _m([[-69, -82, -64], [-38, -69, -44], [-88, -34, -69]])
OS_Q1 = _m([[-43, -82, -79], [-77, -64, -60], [-66, -7, 3]])
OS_P2 = _m([[-46, -19, -20], [-26, -14, 4], [-25, -64, -46]])
OS_Q2 = _m([[-33, -1, 3], [4, -33, -11], [36, -3, -33]])

OS_M1 = (
    _m([[0, 63, 29], [64, 0, 133], [131, 66, 0]]),
    _m([[0, 103, 134], [33, 0, 134], [27, 46, 0]]),
    _m([[0, 142, 99], [74, 0, 43], [112, 142, 0]]),
)
OS_N1 = (
    _m([[0, 54, 149], [38, 0, -6], [97, 96, 0]]),
    _m([[0, 44, 97], [38, 0, 33], [99, 144, 0]]),
    _m([[0, 71, 91], [21, 0, 77], [141, 147, 0]]),
)
OS_M2 = (
    _m([[0, 70, 95], [92, 0, 29], [54, 113, 0]]),
    _m([[0, 52, 105], [110, 0, 30], [117, 133, 0]]),
    _m([[0, 70, 61], [119, 0, 20], [84, 84, 0]]),
)
OS_N2 = (
    _m([[0, 85, 60], [60, 0, 102], [115, 116, 0]]),
    _m([[0, 87, 48], [100, 0, 129], [100, 121, 0]]),
    _m([[0, 150, 67], [42, 0, 115], [107, 142, 0]]),
)
OS_C2_INDEX, OS_D2_INDEX = 2, 2
OS_C1_INDEX, OS_D1_INDEX = 1, 1


# --------------------------------------------------------------------------
# Sandwich protocol run (4x4) with its printed messages and key

SW_A = _m([[34, 30, 9, 36], [91, 83, 99, 57], [42, 72, 80, 42], [22, 62, 67, 16]])
SW_B = _m([[20, 32, 55, 1], [39, 66, 67, 5], [95, 64, 36, 95], [78, 91, 1, 30]])
SW_W = _m([[-2, -8, -10, 4], [6, 4, 2, 7], [-8, -2, -5, -7], [-8, 10, 0, 5]])

SW_P1_COEFFS = (45, 98, 11)
SW_Q1_COEFFS = (77, 26, 4)
SW_P2_COEFFS = (78, 68, 80)
SW_Q2_COEFFS = (45, 24, 17)

SW_P1 = _m([[45, 75, 54, 62], [90, 45, 111, 84], [75, 83, 45, 69], [49, 63, 42, 43]])
SW_Q1 = _m([[44, 56, 6, 25], [63, 75, 10, 31], [107, 90, 62, 73], [100, 69, 27, 56]])
SW_P2 = _m([[78, 98, 77, 104], [159, 78, 167, 125], [110, 140, 78, 110], [90, 130, 111, 78]])
SW_Q2 = _m([[44, 56, 19, 25], [63, 45, 23, 29], [119, 88, 45, 86], [102, 82, 25, 45]])

SW_M1 = (
    (
        _m([[-25, 63, 12, 37], [65, -25, 11, -11], [-29, -39, -25, -25], [-12, -40, 79, -26]]),
        _m([[25, 21, 50, 67], [31, 25, -1, 18], [33, 89, 27, 20], [96, 20, 78, 11]]),
    ),
    (
        _m([[-6, -14, 96, 3], [16, -6, 8, 69], [22, 17, -6, 65], [-11, -3, -7, -7]]),
        _m([[6, 2, 90, -7], [12, 6, -22, -1], [14, 8, -20, 52], [5, 64, 64, 33]]),
    ),
)
SW_M2 = (
    (
        _m([[59, 69, 58, 58], [71, 59, 73, 73], [65, 84, 59, 59], [97, 58, 92, 59]]),
        _m([[-59, 39, -59, 1], [-57, -59, 11, -58], [9, 5, 5, -61], [92, -39, -81, 98]]),
    ),
    (
        _m([[-70, -81, 49, -7], [3, -70, 45, -42], [43, -42, -70, -62], [-59, 47, 97, -70]]),
        _m([[70, 81, 44, 64], [72, 70, 46, 66], [74, 75, 48, 68], [69, 75, 85, 63]]),
    ),
)
SW_ALICE_CHOICE = 1
SW_BOB_CHOICE = 0
SW_U = _m([[83, 95, 45, 64], [95, 107, 57, 76], [81, 93, 43, 62], [78, 90, 40, 59]])
SW_V = _m([[113, 110, 81, 94], [128, 125, 96, 109], [114, 111, 82, 95], [113, 110, 81, 94]])
SW_K = _m([[202, 208, 164, 183], [217, 223, 179, 198], [203, 209, 165, 184], [200, 206, 162, 181]])


# --------------------------------------------------------------------------
# Two-block protocol run (3x3) with diagonal-constant secrets

TB_W1 = _m([[80, 7, 64], [46, 57, 15], [21, 36, 7]])
TB_W2 = _m([[5, 3, 68], [95, 89, 34], [99, 21, 86]])

TB_P11 = _m([[-15, 126, 166], [124, -15, 164], [153, 142, -15]])
TB_Q11 = _m([[-39, 99, 153], [97, -39, 96], [101, 136, -39]])
TB_P12 = _m([[-3, 61, 33], [33, -3, 36], [51, 45, -3]])
TB_Q12 = _m([[-64, 93, 123], [95, -64, 68], [66, 101, -64]])

TB_P21 = _m([[-77, 12, 14], [14, -77, 19], [16, 13, -77]])
TB_Q21 = _m([[-82, 19, 20], [18, -82, 19], [12, 16, -82]])
TB_P22 = _m([[-68, 42, 43], [39, -68, 45], [47, 37, -68]])
TB_Q22 = _m([[-8, 26, 38], [37, -8, 34], [32, 27, -8]])

TB_M11 = (
    _m([[0, 169, 181], [184, 0, 200], [188, 194, 0]]),
    _m([[0, 195, 187], [142, 0, 184], [192, 191, 0]]),
)
TB_M12 = (
    (
        _m([[20, 84, 56], [56, 20, 59], [74, 77, 20]]),
        _m([[-20, 47, 33], [16, -20, 19], [49, 28, -20]]),
    ),
    (
        _m([[7, 76, 43], [43, 7, 46], [74, 55, 7]]),
        _m([[-7, 57, 29], [56, -7, 32], [47, 41, -7]]),
    ),
)
TB_M13 = (
    _m([[0, 183, 189], [198, 0, 180], [170, 173, 0]]),
    _m([[0, 169, 193], [178, 0, 168], [199, 184, 0]]),
)
TB_M21 = (
    _m([[0, 109, 118], [113, 0, 195], [138, 186, 0]]),
    _m([[0, 174, 103], [178, 0, 103], [106, 91, 0]]),
)
TB_M22 = (
    (
        _m([[-17, 84, 85], [83, -17, 84], [77, 81, -17]]),
        _m([[17, 118, 119], [117, 17, 118], [111, 115, 17]]),
    ),
    (
        _m([[39, 140, 141], [139, 39, 140], [133, 137, 39]]),
        _m([[-39, 62, 63], [61, -39, 62], [55, 59, -39]]),
    ),
)
TB_M23 = (
    _m([[0, 194, 167], [171, 0, 49], [78, 139, 0]]),
    _m([[0, 154, 175], [102, 0, 102], [133, 43, 0]]),
)
TB_ALICE_CHOICES = (1, 1, 0)
TB_BOB_CHOICES = (1, 1, 0)
TB_U1 = _m([[65, -8, 49], [31, 42, 0], [6, 21, -8]])
TB_U2 = _m([[-101, -103, -54], [-65, -67, -72], [-47, -85, -36]])
TB_V1 = _m([[-109, -145, -106], [-106, -95, -137], [-131, -116, -145]])
TB_V2 = _m([[-78, -80, -38], [-15, -23, -49], [-24, -62, -20]])
TB_K = _m([[-308, -310, -315], [-305, -320, -278], [-330, -332, -290]])


# --------------------------------------------------------------------------
# Commuting-deformation golden (max-plus)

JONES_BASE = make_matrix(MAX, [[2, 1], [1, 3]])


# --------------------------------------------------------------------------
# Compression goldens: an integer box of 2x2 matrices and a delta chain of
# 3x3 matrices.  Both are genuine marginal sets for the additive word of
# their entrywise-least element.

CMP_BOX_MATRICES = tuple(
    _m([[2, b], [a, 5]]) for a in (4, 5) for b in (3, 4, 5, 6, 7)
)
CMP_BOX_FORM = [[2, [3, 7]], [[4, 5], 5]]

CMP_DELTA_MATRICES = (
    _m([[2, 3, 4], [4, 5, 1], [0, 8, 6]]),
    _m([[2, 3, 7], [4, 5, 1], [0, 8, 6]]),
    _m([[2, 3, 8], [4, 5, 2], [0, 8, 6]]),
)
CMP_DELTA_BASE = [[2, 3, 4], [4, 5, 1], [0, 8, 6]]
CMP_DELTA_DIFFS = [[[[1, 3], 7]], [[[1, 3], 8], [[2, 3], 2]]]


def compression_box_set() -> MarginalSet:
    return make_marginal_set(additive_word(CMP_BOX_MATRICES[0]), CMP_BOX_MATRICES)


def compression_delta_set() -> MarginalSet:
    return make_marginal_set(additive_word(CMP_DELTA_MATRICES[0]), CMP_DELTA_MATRICES)


# --------------------------------------------------------------------------
# Builtin parameter bundles


def _poly_params(
    dim: int, w, base_left, base_right, seed: int, max_degree: int = 2, script=None
) -> ProtocolParams:
    return ProtocolParams(
        kind=MIN,
        dim=dim,
        publics=(w,) if isinstance(w, Matrix) else tuple(w),
        left_families=(PolyFamily(base_left, max_degree, -100, 100),),
        right_families=(PolyFamily(base_right, max_degree, -100, 100),),
        seed=seed,
        script=script,
    )


def builtin_params(name: str) -> ProtocolParams:
    if name == "one-sided-3x3":
        return _poly_params(
            3, OS_W, OS_A, OS_B, seed=1,
            script=ProtocolScript(
                alice_p=(OS_P1,), alice_q=(OS_Q1,), bob_p=(OS_P2,), bob_q=(OS_Q2,),
                alice_sets=(OS_M1, OS_N1), bob_sets=(OS_M2, OS_N2),
                alice_choices=(OS_C2_INDEX, OS_D2_INDEX),
                bob_choices=(OS_C1_INDEX, OS_D1_INDEX),
            ),
        )
    if name == "sandwich4x4":
        return _poly_params(
            4, SW_W, SW_A, SW_B, seed=1,
            script=ProtocolScript(
                alice_p=(SW_P1,), alice_q=(SW_Q1,), bob_p=(SW_P2,), bob_q=(SW_Q2,),
                alice_sets=(SW_M1,), bob_sets=(SW_M2,),
                alice_choices=(SW_ALICE_CHOICE,), bob_choices=(SW_BOB_CHOICE,),
            ),
        )
    if name == "two-block-3x3":
        ldp = (LdpFamily(dim=3, r=90, k=-15), LdpFamily(dim=3, r=90, k=-15))
        return ProtocolParams(
            kind=MIN,
            dim=3,
            publics=(TB_W1, TB_W2),
            left_families=ldp,
            right_families=ldp,
            seed=1,
            script=ProtocolScript(
                alice_p=(TB_P11, TB_P12), alice_q=(TB_Q11, TB_Q12),
                bob_p=(TB_P21, TB_P22), bob_q=(TB_Q21, TB_Q22),
                alice_sets=(TB_M11, TB_M12, TB_M13),
                bob_sets=(TB_M21, TB_M22, TB_M23),
                alice_choices=TB_ALICE_CHOICES, bob_choices=TB_BOB_CHOICES,
            ),
        )
    if name == "attack-demo":
        return _poly_params(3, OS_W, OS_A, OS_B, seed=11, max_degree=3)
    raise KeyError(f"unknown builtin params {name!r}")


BUILTIN_NAMES = ("one-sided-3x3", "sandwich4x4", "two-block-3x3", "attack-demo")
