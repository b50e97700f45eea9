"""Scalar layer for the two tropical semirings.

Everything downstream works over (Q ∪ {+inf}, min, +) or (Q ∪ {-inf}, max, +).
Addition of the semiring is min or max, multiplication is ordinary +, and the
additive neutral is the appropriate infinity.  All arithmetic is exact: values
are Python ints where possible, fractions.Fraction otherwise, plus two
infinity singletons.  Floats are rejected everywhere.

The infinities order and add like numbers, so scalars need no helpers:
comparisons, min and max follow NEG_INF < every finite value < POS_INF, and
+ (the semiring product) absorbs into an infinity from either side.
POS_INF + NEG_INF and a binary - with an infinity raise ArithmeticError; a
float or a bool against an infinity raises TypeError.  Equality stays by
identity.
"""

from __future__ import annotations

import enum
import operator
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

    def __str__(self) -> str:  # the wire's kind token
        return self.value

    @property
    def dual(self) -> "SemiringKind":
        if self is SemiringKind.MIN_PLUS:
            return SemiringKind.MAX_PLUS
        return SemiringKind.MIN_PLUS


def _exact(x) -> bool:
    """An operand of the infinities: a builtin int, a Fraction or an infinity."""
    return type(x) is int or isinstance(x, (Fraction, _Infinity))


def _order(op):
    def compare(self, other):
        # a finite value sits between the two signs
        return op(self.sign, getattr(other, "sign", 0)) if _exact(other) else NotImplemented

    return compare


class _Infinity:
    """Signed infinity singleton; only two instances ever exist."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "POS_INF" if self.sign > 0 else "NEG_INF"

    def __neg__(self) -> "_Infinity":
        return NEG_INF if self.sign > 0 else POS_INF

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __add__(self, other):
        if not _exact(other):
            return NotImplemented
        if other is -self:
            raise ArithmeticError("+inf and -inf cannot be combined")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if not _exact(other):
            return NotImplemented
        raise ArithmeticError("difference of non-finite scalars")

    __rsub__ = __sub__

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
