"""One int contract for every layer: `semiring.require_int`.

Anything but a builtin int raises TypeError("{name} must be an int, not
{type}"); an int past a bound raises ValueError("{name} must be >= {lo}")
or ValueError("{name} must be <= {hi}").  Every lower bound the library
folds into the helper is tried at the bound, which is accepted, and one
past it, which is refused with the helper's message.  The CLI's capped
options refuse a value below their range at parse time, before any file
is read.  A `WordTemplate` checks its own dim and atoms, so every word that
builds evaluates, and encodes and decodes back equal; that property test is
derandomized, so the suite sees the same words on every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg.cli import main
from tropmarg.families import (
    CirculantFamily,
    JonesDeformFamily,
    LdpFamily,
    PolyFamily,
)
from tropmarg.fixtures import JONES_BASE
from tropmarg.marginal import (
    Box,
    Circle,
    Const,
    WordTemplate,
    sample_additive_marginal,
    sample_five_factor_marginal,
    sample_n_factor_marginal,
    sample_sandwich_marginal,
)
from tropmarg.matrix import identity, make_matrix, mat_pow, neutral_matrix, powers
from tropmarg.protocols import ProtocolParams, power_basis
from tropmarg.semiring import SemiringKind, require_int
from tropmarg.wire import decode_word, encode_word

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS
A = make_matrix(MIN, [[0, 3, 5], [2, 0, 4], [1, 6, 0]])
B = make_matrix(MIN, [[1, 0, 2], [3, 1, 0], [0, 2, 1]])


# ---------------------------------------------------------------------------
# The helper


def test_the_helper_returns_an_int_within_its_bounds():
    assert require_int("x", 3) == 3
    assert require_int("x", 0, 0, 0) == 0
    assert require_int("x", -5, hi=-5) == -5
    assert require_int("x", 10**30, 1) == 10**30


@pytest.mark.parametrize("value", [True, False, Fraction(3, 1), 2.0, "3", None], ids=repr)
def test_the_helper_refuses_anything_but_a_builtin_int(value):
    with pytest.raises(TypeError) as e:
        require_int("x", value, 0, 9)
    assert str(e.value) == f"x must be an int, not {type(value).__name__}"


def test_the_helper_refuses_an_int_past_a_bound():
    with pytest.raises(ValueError) as e:
        require_int("x", 0, 1)
    assert str(e.value) == "x must be >= 1"
    with pytest.raises(ValueError) as e:
        require_int("x", 5, 1, 4)
    assert str(e.value) == "x must be <= 4"


# ---------------------------------------------------------------------------
# Each folded bound: accepted at the bound, refused one past it


def _params(n_tuples=3, l1=-20, l2=20) -> ProtocolParams:
    spec = CirculantFamily(MIN, 1, -9, 9)
    return ProtocolParams(
        kind=MIN, dim=1, publics=(make_matrix(MIN, [[4]]),), left_families=(spec,),
        right_families=(spec,), n_tuples=n_tuples, l1=l1, l2=l2,
    )


def _rng() -> random.Random:
    return random.Random(3)


# name -> (call with the value, the bound, one past it, the refusal)
BOUNDS = {
    "tuple count": (lambda v: sample_additive_marginal(A, v, 2, _rng()), 1, 0,
                    "tuple count must be >= 1"),
    "additive l": (lambda v: sample_additive_marginal(A, 2, v, _rng()), 0, -1,
                   "l must be >= 0"),
    "sandwich l2": (lambda v: sample_sandwich_marginal(A, 2, 3, v, _rng()), 3, 2,
                    "l2 must be >= 3"),
    "five-factor l2": (lambda v: sample_five_factor_marginal(A, B, A, 2, 3, v, _rng()), 3, 2,
                       "l2 must be >= 3"),
    "chain l2": (lambda v: sample_n_factor_marginal([A, B, A], 2, 3, v, _rng()), 3, 2,
                 "l2 must be >= 3"),
    "params n_tuples": (lambda v: _params(n_tuples=v), 1, 0,
                        "ProtocolParams.n_tuples must be >= 1"),
    "params l2": (lambda v: _params(l1=3, l2=v), 3, 2, "ProtocolParams.l2 must be >= 3"),
    "degree": (lambda v: power_basis(A, v), 0, -1, "degree must be >= 0"),
    "word dim": (lambda v: WordTemplate(MIN, v, (), ((Box(0),),)), 1, 0,
                 "word dim must be >= 1"),
    "constant index": (lambda v: WordTemplate(MIN, 3, (A, B), ((Const(v), Box(0)),)), 1, 2,
                       "constant index must be <= 1"),
    "poly max_degree": (lambda v: PolyFamily(A, v, 0, 1), 0, -1,
                        "PolyFamily.max_degree must be >= 0"),
    "poly coeff_hi": (lambda v: PolyFamily(A, 2, 4, v), 4, 3,
                      "PolyFamily.coeff_hi must be >= 4"),
    "circulant dim": (lambda v: CirculantFamily(MIN, v, 0, 1), 1, 0,
                      "CirculantFamily.dim must be >= 1"),
    "circulant hi": (lambda v: CirculantFamily(MIN, 3, 4, v), 4, 3,
                     "CirculantFamily.hi must be >= 4"),
    "jones max_denominator": (lambda v: JonesDeformFamily(JONES_BASE, max_denominator=v), 1, 0,
                              "JonesDeformFamily.max_denominator must be >= 1"),
    "ldp dim": (lambda v: LdpFamily(v, 2, -1), 1, 0, "LdpFamily.dim must be >= 1"),
    "ldp r": (lambda v: LdpFamily(3, v, -1), 0, -1, "LdpFamily.r must be >= 0"),
    "ldp k": (lambda v: LdpFamily(3, 2, v), 0, 1, "LdpFamily.k must be <= 0"),
    "powers exponent": (lambda v: powers(A, v), 0, -1, "exponent must be >= 0"),
    "mat_pow exponent": (lambda v: mat_pow(A, v), 0, -1, "exponent must be >= 0"),
    "identity dim": (lambda v: identity(MIN, v), 1, 0, "matrix dim must be >= 1"),
    "neutral_matrix dim": (lambda v: neutral_matrix(MAX, v), 1, 0, "matrix dim must be >= 1"),
}


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_a_folded_bound_holds_at_the_bound_and_refuses_past_it(name):
    call, at, past, message = BOUNDS[name]
    call(at)
    with pytest.raises(ValueError) as e:
        call(past)
    assert str(e.value) == message


# A bool exponent was taken as 0 or 1, and a float one failed inside range().
@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda v: mat_pow(A, v), "exponent", True),
        (lambda v: powers(A, v), "exponent", True),
        (lambda v: mat_pow(A, v), "exponent", 2.5),
        (lambda v: powers(A, v), "exponent", Fraction(2)),
        (lambda v: identity(MIN, v), "matrix dim", True),
        (lambda v: neutral_matrix(MIN, v), "matrix dim", 2.0),
    ],
    ids=["mat_pow-bool", "powers-bool", "mat_pow-float", "powers-fraction",
         "identity-bool", "neutral_matrix-float"],
)
def test_matrix_ints_go_through_the_helper(call, name, value):
    with pytest.raises(TypeError) as e:
        call(value)
    assert str(e.value) == f"{name} must be an int, not {type(value).__name__}"


# option -> (argv with the value, the lowest value it takes)
CLI_BOUNDS = {
    "--dim": (["gen-params", "--semiring", "min-plus", "--range=-9..9", "--family", "poly",
               "--seed", "1", "--out", "{out}", "--dim"], 1),
    "--count": (["gen-marginal", "--word", "right", "--in", "{missing}", "--out", "{out}",
                 "--count"], 1),
    "--blocks": (["run-protocol", "multiblock", "--params", "{missing}", "--out", "{out}",
                  "--blocks"], 1),
    "--degree": (["attack", "--transcript", "{missing}", "--out", "{out}", "--degree"], 0),
}


@pytest.mark.parametrize("option", sorted(CLI_BOUNDS))
def test_a_capped_option_below_its_range_fails_the_parse(tmp_path, option):
    argv, lo = CLI_BOUNDS[option]
    paths = {"out": str(tmp_path / "out.json"), "missing": str(tmp_path / "missing.json")}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.format(**paths) for a in argv] + [str(lo - 1)])
    assert code == 2
    # the parse refuses it before the missing input file is opened
    assert json.loads(out.getvalue()) == {
        "type": "error", "code": 2, "reason": "bad-arguments",
        "detail": f"argument {option}: value must be >= {lo}",
    }
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# Words own their fields


def _twins(value: int) -> list:
    """Values equal to an int that are not builtin ints."""
    twins = [Fraction(value), float(value)]
    return twins + [bool(value)] if value in (0, 1) else twins


@st.composite
def word_cases(draw):
    """(kind, dim, constants, summands as (tag, value) lists, defective):
    a valid word's fields, with the dim or one atom value sometimes swapped
    for an equal non-int or the dim for 0."""
    kind = draw(st.sampled_from([MIN, MAX]))
    dim = draw(st.integers(1, 3))
    entries = st.integers(-9, 9)
    constants = tuple(
        make_matrix(kind, draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                                        min_size=dim, max_size=dim)))
        for _ in range(draw(st.integers(0, 2)))
    )
    summands, boxes, circles = [], 0, 0
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            summands.append([("circle", circles)])
            circles += 1
            continue
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            if constants and draw(st.booleans()):
                atoms.append(("const", draw(st.integers(0, len(constants) - 1))))
            else:
                atoms.append(("box", boxes))
                boxes += 1
        summands.append(atoms)
    defect = draw(st.sampled_from([None, None, "dim", "zero-dim", "atom"]))
    if defect == "dim":
        dim = draw(st.sampled_from(_twins(dim)))
    elif defect == "zero-dim":
        dim = 0
    elif defect == "atom":
        atoms = draw(st.sampled_from(summands))
        i = draw(st.integers(0, len(atoms) - 1))
        tag, value = atoms[i]
        atoms[i] = (tag, draw(st.sampled_from(_twins(value))))
    return kind, dim, constants, summands, defect is not None


ATOMS = {"const": Const, "box": Box, "circle": Circle}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(word_cases())
def test_every_word_that_builds_evaluates_and_round_trips(case):
    kind, dim, constants, raw, defective = case
    summands = tuple(tuple(ATOMS[tag](value) for tag, value in atoms) for atoms in raw)
    if defective:
        with pytest.raises((TypeError, ValueError)):
            WordTemplate(kind, dim, constants, summands)
        return
    word = WordTemplate(kind, dim, constants, summands)
    assert word.neutral_value().dim == dim
    data = encode_word(word)
    back = decode_word(data)
    assert back == word
    assert encode_word(back) == data


@pytest.mark.parametrize(
    "fields",
    [
        (True, (make_matrix(MIN, [[4]]),), ((Const(0), Box(0)),)),
        (1, (make_matrix(MIN, [[4]]),), ((Const(False), Box(0)),)),
        (1, (make_matrix(MIN, [[4]]),), ((Const(Fraction(0)), Box(0)),)),
        (1, (), ((Box(False),),)),
        (1, (), ((Circle(0.0),),)),
        (0, (), ((Box(0),),)),
    ],
    ids=["dim-true", "const-false", "const-fraction", "box-false", "circle-float", "dim-0"],
)
def test_words_the_decoder_would_refuse_do_not_build(fields):
    dim, constants, summands = fields
    with pytest.raises((TypeError, ValueError)):
        WordTemplate(MIN, dim, constants, summands)
