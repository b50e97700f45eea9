"""The command line under hostile argv.

Every integer option of every subcommand is tried at 0, -1, its cap, its
cap + 1 and 10**12 (options without a cap at 0, -1 and 10**12), and every
file argument as a missing path or a directory.  Each call must return 0,
1, 2 or 3, write nothing to stderr, print exactly one JSON error record when
it fails and finish within CALL_BOUND_S.  The sweep covers each option at
each edge once; the derandomized Hypothesis test mixes them.  Params whose
caps leave a sampler nothing to draw are an exit 2 too: gen-params refuses
an empty pair range, and the additive sampler a negative cap.  The last test
checks that the CLI's runners, the protocol table and the transcript decoder
name the same protocols.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropmarg import cli, protocols
from tropmarg.cli import MAX_BLOCKS, MAX_DIM, main
from tropmarg.families import MAX_POLY_DEGREE
from tropmarg.protocols import MAX_TUPLES
from tropmarg.wire import (
    WireFormatError,
    decode_transcript,
    from_canonical_bytes,
    read_bytes,
    to_canonical_bytes,
)

CALL_BOUND_S = 3.0
BIG = 10**12


def _edges(cap=None) -> list[int]:
    return [0, -1, BIG] if cap is None else [0, -1, cap, cap + 1, BIG]


# subcommand -> integer option -> its cap (None: no cap)
INT_OPTIONS = {
    "gen-params": {
        "--dim": MAX_DIM, "--seed": None, "--tuples": MAX_TUPLES,
        "--cap": None, "--pair-lo": None, "--pair-hi": None,
    },
    "gen-marginal": {"--count": MAX_TUPLES, "--seed": None},
    "verify-marginal": {},
    "run-protocol": {"--seed": None, "--blocks": MAX_BLOCKS},
    "attack": {"--degree": MAX_POLY_DEGREE},
    "selftest": {},
}
# the integer options inside gen-params --family, by family
FAMILY_OPTIONS = {
    "poly": {"deg": MAX_POLY_DEGREE},
    "circulant": {},
    "upper-t": {"t": None},
    "lower-s": {"s": None},
    "jones": {"den": None},
    "ldp": {"r": None, "k": None},
}


def _call(argv: list[str]) -> tuple[int, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2, 3), argv
    assert err.getvalue() == "", argv
    if code:
        assert len(lines) == 1, argv
        record = json.loads(lines[0])
        assert record["type"] == "error" and record["code"] == code, argv
    assert elapsed < CALL_BOUND_S, (argv, elapsed)
    return code, lines


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs for every subcommand, plus a missing path and a directory."""
    d = tmp_path_factory.mktemp("argv")
    paths = {n: str(d / f"{n}.json") for n in ("params", "params-max", "set", "transcript")}
    for key, semiring, family in (
        ("params", "min-plus", "poly"), ("params-max", "max-plus", "jones"),
    ):
        assert main(["gen-params", "--semiring", semiring, "--dim", "3", "--range", "-9..9",
                     "--family", family, "--seed", "4", "--out", paths[key]]) == 0
    assert main(["gen-marginal", "--word", "right", "--in", paths["params"],
                 "--count", "2", "--out", paths["set"]]) == 0
    assert main(["run-protocol", "sidelnikov", "--params", paths["params"],
                 "--out", paths["transcript"]]) == 0
    word = json.loads(read_bytes(paths["set"]))["word"]
    paths["word"] = str(d / "word.json")
    with open(paths["word"], "wb") as fh:
        fh.write(to_canonical_bytes({"type": "word", **word}))
    paths["missing"] = str(d / "missing.json")
    paths["directory"] = str(d)
    paths["out"] = str(d / "out.json")
    paths["out-nowhere"] = str(d / "no-such-dir" / "out.json")
    return paths


def _valid_argv(command: str, files: dict) -> list[str]:
    """A call of `command` that succeeds, its integer options left out."""
    return {
        "gen-params": ["gen-params", "--semiring", "min-plus", "--dim", "3", "--range", "-9..9",
                       "--family", "poly", "--seed", "1", "--out", files["out"]],
        "gen-marginal": ["gen-marginal", "--word", "right", "--in", files["params"],
                         "--count", "2", "--out", files["out"]],
        "verify-marginal": ["verify-marginal", "--set", files["set"], "--word", files["word"]],
        "run-protocol": ["run-protocol", "multiblock", "--params", files["params"],
                         "--out", files["out"]],
        "attack": ["attack", "--transcript", files["transcript"], "--out", files["out"]],
        "selftest": ["selftest"],
    }[command]


def _with(argv: list[str], option: str, value) -> list[str]:
    """argv with `option` set to `value`, replacing the option if present."""
    argv = list(argv)
    if option in argv:
        argv[argv.index(option) + 1] = str(value)
        return argv
    return argv + [option, str(value)]


# ---------------------------------------------------------------------------
# Every option at every edge, once


SWEEP = [
    (command, option, value)
    for command, options in INT_OPTIONS.items()
    for option, cap in options.items()
    for value in _edges(cap)
]
FAMILY_SWEEP = [
    (family, key, value)
    for family, options in FAMILY_OPTIONS.items()
    for key, cap in options.items()
    for value in _edges(cap)
]


def test_every_subcommand_has_a_valid_call(files):
    for command in INT_OPTIONS:
        assert _call(_valid_argv(command, files))[0] == 0, command


@pytest.mark.parametrize("command,option,value", SWEEP)
def test_integer_option_edges(files, command, option, value):
    code, lines = _call(_with(_valid_argv(command, files), option, value))
    cap = INT_OPTIONS[command][option]
    if cap is not None and value > cap:
        assert code == 2 and json.loads(lines[0])["reason"] == "bad-arguments"


@pytest.mark.parametrize("family,key,value", FAMILY_SWEEP)
def test_family_option_edges(files, family, key, value):
    semiring = "max-plus" if family == "jones" else "min-plus"
    argv = _with(_valid_argv("gen-params", files), "--family", f"{family}:{key}={value}")
    code, lines = _call(_with(argv, "--semiring", semiring))
    cap = FAMILY_OPTIONS[family][key]
    if cap is not None and value > cap:
        assert code == 2 and json.loads(lines[0])["reason"] == "bad-arguments"


FILE_OPTIONS = {
    "gen-params": ["--out"],
    "gen-marginal": ["--in", "--out"],
    "verify-marginal": ["--set", "--word"],
    "run-protocol": ["--params", "--out"],
    "attack": ["--transcript", "--out"],
}


@pytest.mark.parametrize(
    "command,option",
    [(c, o) for c, options in FILE_OPTIONS.items() for o in options],
)
@pytest.mark.parametrize("where", ["missing", "directory", "out-nowhere"])
def test_missing_and_unreadable_files(files, command, option, where):
    if option == "--out" and where == "missing":
        return  # a new file at a fresh path is what --out is for
    code, lines = _call(_with(_valid_argv(command, files), option, files[where]))
    assert code == 2


@pytest.mark.parametrize(
    "params_args,word",
    [
        (["--pair-lo", "10", "--pair-hi", "-10"], "sandwich"),
        (["--pair-lo", "10", "--pair-hi", "-10"], "five-factor"),
        (["--cap", "-5"], "additive"),
    ],
)
def test_params_that_leave_a_sampler_nothing_exit_2(tmp_path, params_args, word):
    """ProtocolParams refuses an empty pair range, so gen-params writes no
    file and a file edited to hold one is malformed input; a negative cap
    is read only by the additive sampler, which refuses it."""
    params = tmp_path / "params.json"
    gen = ["gen-params", "--semiring", "min-plus", "--dim", "3", "--range", "-9..9",
           "--family", "poly", "--seed", "1", "--out", str(params)]
    sample = ["gen-marginal", "--word", word, "--in", str(params), "--count", "2",
              "--out", str(tmp_path / "set.json")]
    if word == "additive":
        assert _call([*gen, *params_args])[0] == 0
        code, lines = _call(sample)
        assert code == 2 and json.loads(lines[0])["reason"] == "bad-arguments"
        return
    code, lines = _call([*gen, *params_args])
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0]) == {
        "type": "error", "code": 2, "reason": "bad-arguments",
        "detail": "ProtocolParams.l2 must be >= 10",
    }
    assert not params.exists()
    assert _call(gen)[0] == 0
    obj = from_canonical_bytes(params.read_bytes())
    obj["l1"], obj["l2"] = 10, -10
    params.write_bytes(to_canonical_bytes(obj))
    code, lines = _call(sample)
    assert code == 2 and json.loads(lines[0])["reason"] == "malformed-input"


# ---------------------------------------------------------------------------
# Mixed argv


def _int_option(options: dict) -> st.SearchStrategy:
    return st.sampled_from(sorted(options)).flatmap(
        lambda option: st.tuples(st.just(option), st.sampled_from([2, *_edges(options[option])]))
    )


@st.composite
def argvs(draw, files):
    command = draw(st.sampled_from(sorted(INT_OPTIONS)))
    argv = _valid_argv(command, files)
    options = INT_OPTIONS[command]
    if options:
        for option, value in draw(st.lists(_int_option(options), max_size=len(options))):
            argv = _with(argv, option, value)
    if command == "gen-params":
        family = draw(st.sampled_from(sorted(FAMILY_OPTIONS)))
        spec = family
        if FAMILY_OPTIONS[family] and draw(st.booleans()):
            key, value = draw(_int_option(FAMILY_OPTIONS[family]))
            spec = f"{family}:{key}={value}"
        argv = _with(argv, "--family", spec)
        argv = _with(argv, "--semiring", draw(st.sampled_from(["min-plus", "max-plus"])))
        argv = _with(argv, "--range", draw(st.sampled_from(
            ["-9..9", "0..0", "5..1", f"-{BIG}..{BIG}", "x"]
        )))
    if command == "run-protocol":
        argv[1] = draw(st.sampled_from(sorted(protocols._EXCHANGES)))
    for option in FILE_OPTIONS.get(command, []):
        if draw(st.integers(0, 3)) == 0:
            choices = ["missing", "directory", "out-nowhere", "set", "transcript",
                       "params", "params-max", "word"]
            argv = _with(argv, option, files[draw(st.sampled_from(choices))])
    if command in ("gen-marginal", "run-protocol") and draw(st.integers(0, 3)) == 0:
        builtin = draw(st.sampled_from(["attack-demo", "two-block-3x3", "sandwich4x4", "nope"]))
        source = "--in" if command == "gen-marginal" else "--params"
        argv = _with(argv, source, f"builtin:{builtin}")
    return argv


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_argv_exit_contract(files, data):
    _call(data.draw(argvs(files)))


# ---------------------------------------------------------------------------
# One list of protocol names


def test_runners_table_and_decoder_name_the_same_protocols(files):
    names = set(protocols._EXCHANGES)
    assert set(cli._RUNNERS) == names
    assert all(cli._RUNNERS[name] is getattr(protocols, cli._RUNNERS[name].__name__)
               for name in names)
    obj = from_canonical_bytes(read_bytes(files["transcript"]))
    for name in names:
        obj["protocol"] = name
        assert decode_transcript(to_canonical_bytes(obj)).protocol == name
    for junk in ("quantum", "", ["sandwich"], None, 3):
        obj["protocol"] = junk
        with pytest.raises(WireFormatError):
            decode_transcript(to_canonical_bytes(obj))
