"""Scalar layer for the two tropical semirings.

Everything downstream works over (Q ∪ {+inf}, min, +) or (Q ∪ {-inf}, max, +).
Addition of the semiring is min or max, multiplication is ordinary +, and the
additive neutral is the appropriate infinity.  All arithmetic is exact: values
are Python ints where possible, fractions.Fraction otherwise, plus two
infinity singletons.  Floats are rejected everywhere.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Union


class SelfCheckError(RuntimeError):
    """A result that the algorithm guarantees failed its direct check.

    Raised by the solver's point check, the samplers' per-draw checks, the
    family constructors and the protocols' key equality; it signals a bug,
    never bad input.  Defined in the scalar layer because every layer that
    raises it imports this one."""


def require_int(name: str, value, lo=None, hi=None) -> int:
    """value, if it is a builtin int within lo..hi (a None bound is open).

    The one int contract of every layer: a bool, a Fraction, a float or
    anything else raises TypeError("{name} must be an int, not {type}"), and
    an int outside the bounds raises ValueError("{name} must be >= {lo}") or
    ValueError("{name} must be <= {hi}")."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi}")
    return value


class SemiringKind(enum.Enum):
    MIN_PLUS = "min-plus"
    MAX_PLUS = "max-plus"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def dual(self) -> "SemiringKind":
        if self is SemiringKind.MIN_PLUS:
            return SemiringKind.MAX_PLUS
        return SemiringKind.MIN_PLUS


class _Infinity:
    """Signed infinity singleton; only two instances ever exist."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "POS_INF" if self.sign > 0 else "NEG_INF"

    def __neg__(self) -> "_Infinity":
        return NEG_INF if self.sign > 0 else POS_INF

    def __reduce__(self) -> str:
        # pickle and copy hand back the module's singleton, not a new object
        return repr(self)

    # Intentionally no __eq__/__hash__ overrides: identity semantics.


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)

Scalar = Union[int, Fraction, _Infinity]


def as_scalar(value) -> Scalar:
    """Normalize value to a Scalar, rejecting floats and other junk.

    Fractions with denominator 1 collapse to int so that equal values have
    one canonical representation (needed for hashing and wire round-trips).
    """
    if type(value) is int:
        return value
    if value is POS_INF or value is NEG_INF:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"not an exact scalar: {value!r}")


def is_finite(x: Scalar) -> bool:
    return not isinstance(x, _Infinity)


def add_neutral(kind: SemiringKind) -> Scalar:
    """Neutral of the semiring sum: +inf for min-plus, -inf for max-plus."""
    return POS_INF if kind is SemiringKind.MIN_PLUS else NEG_INF


MUL_NEUTRAL: Scalar = 0


def s_lt(a: Scalar, b: Scalar) -> bool:
    """Total order with NEG_INF < finite < POS_INF."""
    if a is b:
        return False
    if a is NEG_INF or b is POS_INF:
        return True
    if a is POS_INF or b is NEG_INF:
        return False
    return a < b


def s_le(a: Scalar, b: Scalar) -> bool:
    return not s_lt(b, a)


def s_min(a: Scalar, b: Scalar) -> Scalar:
    return a if s_le(a, b) else b


def s_max(a: Scalar, b: Scalar) -> Scalar:
    return b if s_le(a, b) else a


def s_add(kind: SemiringKind, a: Scalar, b: Scalar) -> Scalar:
    """Semiring sum: min for min-plus, max for max-plus."""
    return s_min(a, b) if kind is SemiringKind.MIN_PLUS else s_max(a, b)


def s_mul(a: Scalar, b: Scalar) -> Scalar:
    """Semiring product: ordinary addition with absorbing infinities.

    Within one semiring only one infinity sign can occur, so the undefined
    combination +inf + -inf signals a bug and raises.
    """
    if type(a) is int and type(b) is int:
        return a + b
    a_inf = isinstance(a, _Infinity)
    b_inf = isinstance(b, _Infinity)
    if a_inf or b_inf:
        if a_inf and b_inf and a is not b:
            raise ArithmeticError("+inf and -inf cannot be combined")
        return a if a_inf else b
    return _norm(a + b)


def s_neg(a: Scalar) -> Scalar:
    if type(a) is int:
        return -a
    if isinstance(a, _Infinity):
        return -a
    return _norm(-a)


def s_sub(a: Scalar, b: Scalar) -> Scalar:
    """a - b for finite scalars; residuation never subtracts infinities here."""
    if type(a) is int and type(b) is int:
        return a - b
    if isinstance(a, _Infinity) or isinstance(b, _Infinity):
        raise ArithmeticError("difference of non-finite scalars")
    return _norm(a - b)


def _norm(x) -> Scalar:
    """Collapse a Fraction with denominator 1 to int; anything else as is."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x
