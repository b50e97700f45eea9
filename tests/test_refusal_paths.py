"""CLI refusals that no other test reaches: each gives its exit code and
reason, and nothing else."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import tropmarg.cli as cli
import tropmarg.fixtures as fx
from tropmarg.marginal import make_marginal_set, right_word, sandwich_word, verify_marginal
from tropmarg.matrix import scalar_mul
from tropmarg.wire import decode_transcript, encode_marginal_set, encode_word



@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = cli.main(list(argv))
        lines = capsys.readouterr().out.splitlines()
        return code, lines

    return invoke


def _record(lines) -> dict:
    assert len(lines) == 1
    return json.loads(lines[0])


# --------------------------------------------------------------------------
# verify-marginal --word


@pytest.fixture
def set_file(tmp_path):
    path = tmp_path / "set.json"
    s = make_marginal_set(right_word(fx.DEF3_A), [fx.DEF3_C1, fx.DEF3_C2])
    path.write_bytes(encode_marginal_set(s))
    return path


def test_a_word_the_tuples_fail_is_exit_1(run, tmp_path, set_file):
    word = right_word(fx.RES_A)
    assert not verify_marginal(word, fx.DEF3_C1)
    word_file = tmp_path / "word.json"
    word_file.write_bytes(encode_word(word))
    code, lines = run("verify-marginal", "--set", str(set_file), "--word", str(word_file))
    assert code == 1
    record = _record(lines)
    assert record["reason"] == "verification-failed"
    assert record["detail"] == "tuples at indices [0, 1] fail under the given word"


@pytest.mark.parametrize(
    "word", [sandwich_word(fx.DEF3_A), right_word(fx.BIL_A)], ids=["arity", "dim"]
)
def test_a_word_that_does_not_fit_the_set_is_exit_2(run, tmp_path, set_file, word):
    word_file = tmp_path / "word.json"
    word_file.write_bytes(encode_word(word))
    code, lines = run("verify-marginal", "--set", str(set_file), "--word", str(word_file))
    assert code == 2
    record = _record(lines)
    assert record["reason"] == "malformed-input"
    assert record["detail"].startswith("word does not fit the set")


# --------------------------------------------------------------------------
# run-protocol and attack


@pytest.mark.parametrize(
    "params,blocks,detail",
    [
        ("builtin:one-sided-3x3", "2", "scripted params fix their block count"),
        ("builtin:two-block-3x3", "3", "params hold 2 block(s), cannot reshape to 3"),
    ],
)
def test_blocks_that_do_not_fit_the_params_are_exit_2(run, tmp_path, params, blocks, detail):
    code, lines = run(
        "run-protocol", "multiblock", "--params", params, "--blocks", blocks,
        "--out", str(tmp_path / "t.json"),
    )
    assert code == 2
    assert _record(lines) == {
        "type": "error", "code": 2, "reason": "bad-arguments", "detail": detail,
    }


def test_attack_on_circulant_families_is_exit_2(run, tmp_path):
    params, transcript = tmp_path / "p.json", tmp_path / "t.json"
    assert run(
        "gen-params", "--semiring", "min-plus", "--dim", "3", "--range", "-9..9",
        "--family", "circulant", "--seed", "1", "--out", str(params),
    )[0] == 0
    assert run(
        "run-protocol", "sidelnikov", "--params", str(params), "--out", str(transcript)
    )[0] == 0
    code, lines = run("attack", "--transcript", str(transcript), "--out", str(tmp_path / "r"))
    assert code == 2
    record = _record(lines)
    assert record["reason"] == "bad-arguments"
    assert record["detail"] == "attack needs polynomial families on both sides"


def test_a_rebound_runner_whose_keys_differ_is_exit_1(run, tmp_path, monkeypatch):
    runner = cli._RUNNERS["sidelnikov"]

    def disagreeing(params, rng):
        t = runner(params, rng)
        return replace(t, key_b=scalar_mul(1, t.key_b))

    monkeypatch.setitem(cli._RUNNERS, "sidelnikov", disagreeing)
    code, lines = run(
        "run-protocol", "sidelnikov", "--params", "builtin:attack-demo",
        "--out", str(tmp_path / "t.json"),
    )
    assert code == 1
    record = _record(lines)
    assert record["reason"] == "keys-disagree"
    assert not decode_transcript((tmp_path / "t.json").read_bytes()).agreed


# --------------------------------------------------------------------------
# selftest and argument parsing


def test_a_failed_selftest_row_names_the_row(run, monkeypatch):
    star, wrong = fx.RES_XSTAR, scalar_mul(1, fx.RES_XSTAR)
    monkeypatch.setattr(fx, "RES_XSTAR", wrong)
    code, lines = run("selftest")
    assert code == 1
    assert [line for line in lines if not line.startswith("ok   ")] == [
        f"FAIL principal-right-solution: principal solution: got {star!r}, recorded {wrong!r}",
        "13/14 checks passed",
    ]


@pytest.mark.parametrize(
    "option,value,detail",
    [
        ("--range", "1..x", "non-integer range bound in '1..x'"),
        ("--family", "poly:deg", "family option 'deg' needs key=value"),
        ("--family", "poly:deg=x", "family option 'deg=x' must be an integer"),
        ("--family", "nope", "unknown family 'nope'"),
    ],
)
def test_gen_params_parse_errors_are_exit_2(run, tmp_path, option, value, detail):
    argv = {
        "--semiring": "min-plus", "--dim": "2", "--range": "-9..9",
        "--family": "circulant", "--seed": "0", "--out": str(tmp_path / "p.json"),
        option: value,
    }
    code, lines = run("gen-params", *(x for pair in argv.items() for x in pair))
    assert code == 2
    assert _record(lines) == {
        "type": "error", "code": 2, "reason": "bad-arguments", "detail": detail,
    }
    assert not (tmp_path / "p.json").exists()
