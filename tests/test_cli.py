"""End-to-end runs of the command-line front end, in process via main()."""

import json
import time

import pytest

from tropmarg.cli import main
from tropmarg.wire import (
    MAX_POLY_DEGREE,
    MAX_TUPLES,
    decode_marginal_set,
    decode_params,
    decode_report,
    decode_transcript,
    read_bytes,
)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    return invoke


@pytest.fixture
def params_file(tmp_path, run):
    path = tmp_path / "params.json"
    code, _ = run(
        "gen-params",
        "--semiring", "min-plus",
        "--dim", "3",
        "--range", "-20..20",
        "--family", "poly:deg=3",
        "--seed", "7",
        "--out", str(path),
    )
    assert code == 0
    return path


def _last_record(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


class TestGenParams:
    def test_writes_decodable_params(self, run, tmp_path, params_file):
        params = decode_params(read_bytes(str(params_file)))
        assert params.dim == 3 and params.seed == 7

    def test_same_seed_same_bytes(self, run, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = (
            "gen-params", "--semiring", "max-plus", "--dim", "2",
            "--range", "0..9", "--family", "circulant", "--seed", "3",
        )
        assert run(*args, "--out", str(a))[0] == 0
        assert run(*args, "--out", str(b))[0] == 0
        assert read_bytes(str(a)) == read_bytes(str(b))

    def test_range_with_negative_low_bound(self, run, tmp_path):
        code, _ = run(
            "gen-params", "--semiring", "min-plus", "--dim", "2",
            "--range", "-5..-1", "--family", "circulant", "--seed", "0",
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 0

    def test_empty_range_rejected(self, run, tmp_path):
        code, out = run(
            "gen-params", "--semiring", "min-plus", "--dim", "2",
            "--range", "9..0", "--family", "circulant", "--seed", "0",
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert _last_record(out)["reason"] == "bad-arguments"

    def test_jones_needs_max_plus(self, run, tmp_path):
        code, out = run(
            "gen-params", "--semiring", "min-plus", "--dim", "2",
            "--range", "0..5", "--family", "jones", "--seed", "0",
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert "max-plus" in _last_record(out)["detail"]

    def test_unknown_family_option(self, run, tmp_path):
        code, out = run(
            "gen-params", "--semiring", "min-plus", "--dim", "2",
            "--range", "0..5", "--family", "circulant:t=3", "--seed", "0",
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 2

    def test_missing_required_argument(self, run):
        code, out = run("gen-params", "--semiring", "min-plus")
        assert code == 2
        assert _last_record(out)["type"] == "error"


class TestGenMarginal:
    @pytest.mark.parametrize("word", ["right", "left", "sandwich", "five-factor", "additive"])
    def test_each_word_samples_and_verifies(self, run, tmp_path, params_file, word):
        out_file = tmp_path / f"{word}.json"
        code, out = run(
            "gen-marginal", "--word", word, "--in", str(params_file),
            "--count", "2", "--out", str(out_file),
        )
        assert code == 0, out
        code, out = run("verify-marginal", "--set", str(out_file))
        assert code == 0
        assert "verify" in out

    def test_deterministic_and_seed_override(self, run, tmp_path, params_file):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        base = ("gen-marginal", "--word", "right", "--in", str(params_file), "--count", "3")
        assert run(*base, "--out", str(a))[0] == 0
        assert run(*base, "--out", str(b))[0] == 0
        assert run(*base, "--seed", "99", "--out", str(c))[0] == 0
        assert read_bytes(str(a)) == read_bytes(str(b))
        assert read_bytes(str(a)) != read_bytes(str(c))

    def test_compressed_encodings_round_trip(self, run, tmp_path, params_file):
        for encoding in ("interval", "delta"):
            out_file = tmp_path / f"{encoding}.json"
            code, _ = run(
                "gen-marginal", "--word", "additive", "--in", str(params_file),
                "--count", "3", "--encoding", encoding, "--out", str(out_file),
            )
            assert code == 0
            s = decode_marginal_set(read_bytes(str(out_file)))
            assert len(s.tuples) >= 1

    def test_sampler_exhaustion_is_exit_3(self, run, tmp_path):
        p = tmp_path / "deg0.json"
        code, _ = run(
            "gen-params", "--semiring", "min-plus", "--dim", "3",
            "--range", "-9..9", "--family", "poly:deg=0", "--seed", "1",
            "--out", str(p),
        )
        assert code == 0
        code, out = run(
            "gen-marginal", "--word", "right", "--in", str(p),
            "--count", "1", "--out", str(tmp_path / "never.json"),
        )
        assert code == 3
        assert _last_record(out)["reason"] == "sampler-exhausted"


class TestVerifyMarginal:
    def test_tampered_set_fails_with_exit_1(self, run, tmp_path, params_file):
        set_file = tmp_path / "set.json"
        run(
            "gen-marginal", "--word", "right", "--in", str(params_file),
            "--count", "2", "--out", str(set_file),
        )
        obj = json.loads(read_bytes(str(set_file)))
        obj["tuples"][0][0][0][1] = -777
        set_file.write_text(json.dumps(obj) + "\n")
        code, out = run("verify-marginal", "--set", str(set_file))
        assert code == 1
        rec = _last_record(out)
        assert rec["reason"] == "verification-failed" and rec["code"] == 1

    def test_garbage_file_is_exit_2(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{{")
        code, out = run("verify-marginal", "--set", str(bad))
        assert code == 2
        assert _last_record(out)["reason"] == "malformed-input"

    def test_missing_file_is_exit_2(self, run, tmp_path):
        code, out = run("verify-marginal", "--set", str(tmp_path / "absent.json"))
        assert code == 2
        assert _last_record(out)["reason"] == "io-error"

    def test_cross_word_verification(self, run, tmp_path, params_file):
        set_file = tmp_path / "set.json"
        run(
            "gen-marginal", "--word", "additive", "--in", str(params_file),
            "--count", "2", "--out", str(set_file),
        )
        # the embedded word is the only word file format we emit, so reuse it
        obj = json.loads(read_bytes(str(set_file)))
        word_file = tmp_path / "word.json"
        word_file.write_text(
            json.dumps({"type": "word", **obj["word"]}, sort_keys=True) + "\n"
        )
        code, out = run(
            "verify-marginal", "--set", str(set_file), "--word", str(word_file)
        )
        assert code == 0


class TestRunProtocol:
    @pytest.mark.parametrize(
        "protocol,params",
        [
            ("sidelnikov", "builtin:attack-demo"),
            ("one-sided", "builtin:one-sided-3x3"),
            ("sandwich", "builtin:sandwich4x4"),
            ("multiblock", "builtin:two-block-3x3"),
        ],
    )
    def test_builtin_runs_agree(self, run, tmp_path, protocol, params):
        out_file = tmp_path / "t.json"
        code, out = run("run-protocol", protocol, "--params", params, "--out", str(out_file))
        assert code == 0, out
        assert "keys agree" in out
        t = decode_transcript(read_bytes(str(out_file)))
        assert t.agreed and t.protocol == protocol

    def test_generated_params_run(self, run, tmp_path, params_file):
        out_file = tmp_path / "t.json"
        code, _ = run(
            "run-protocol", "one-sided", "--params", str(params_file),
            "--seed", "5", "--out", str(out_file),
        )
        assert code == 0
        assert decode_transcript(read_bytes(str(out_file))).seed == 5

    def test_blocks_replicates_single_block_params(self, run, tmp_path, params_file):
        out_file = tmp_path / "t.json"
        code, _ = run(
            "run-protocol", "multiblock", "--params", str(params_file),
            "--blocks", "2", "--out", str(out_file),
        )
        assert code == 0
        t = decode_transcript(read_bytes(str(out_file)))
        assert len(t.message("u")) == 2

    def test_blocks_rejected_elsewhere(self, run, tmp_path, params_file):
        code, out = run(
            "run-protocol", "sidelnikov", "--params", str(params_file),
            "--blocks", "2", "--out", str(tmp_path / "t.json"),
        )
        assert code == 2

    def test_unknown_builtin(self, run, tmp_path):
        code, out = run(
            "run-protocol", "sidelnikov", "--params", "builtin:nothing",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 2
        assert "unknown builtin" in _last_record(out)["detail"]


class TestAttack:
    def test_recovers_demo_key(self, run, tmp_path):
        t_file = tmp_path / "t.json"
        r_file = tmp_path / "r.json"
        assert run(
            "run-protocol", "sidelnikov", "--params", "builtin:attack-demo",
            "--out", str(t_file),
        )[0] == 0
        code, out = run(
            "attack", "--transcript", str(t_file), "--degree", "3", "--out", str(r_file)
        )
        assert code == 0, out
        report = decode_report(read_bytes(str(r_file)))
        assert report["decomposed"] and report["match"]
        assert report["candidate"] == report["expected"]

    def test_failed_rewrite_still_writes_a_report(self, run, tmp_path):
        t_file = tmp_path / "t.json"
        r_file = tmp_path / "r.json"
        run(
            "run-protocol", "sidelnikov", "--params", "builtin:attack-demo",
            "--out", str(t_file),
        )
        code, out = run(
            "attack", "--transcript", str(t_file), "--degree", "0", "--out", str(r_file)
        )
        report = decode_report(read_bytes(str(r_file)))
        if code == 0:
            assert report["match"]
        else:
            assert code == 1
            assert _last_record(out)["reason"] in ("no-decomposition", "attack-missed")
            assert report["decomposed"] is False or report["match"] is False

    def test_set_valued_messages_rejected(self, run, tmp_path):
        t_file = tmp_path / "t.json"
        run(
            "run-protocol", "multiblock", "--params", "builtin:two-block-3x3",
            "--out", str(t_file),
        )
        code, out = run(
            "attack", "--transcript", str(t_file), "--out", str(tmp_path / "r.json")
        )
        assert code == 2
        assert "single-matrix" in _last_record(out)["detail"]


def test_selftest_all_green(run):
    code, out = run("selftest")
    assert code == 0
    assert "14/14 checks passed" in out


_WORD = {
    "kind": "min-plus",
    "dim": 2,
    "constants": [[[0, 1], [1, 0]]],
    "summands": [[["const", 0], ["box", 0]]],
}
_PAIR_WORD = {**_WORD, "summands": [[["box", 0], ["const", 0], ["box", 1]]]}
_ID = [[0, "inf"], ["inf", 0]]


def _set(encoding, word=_WORD, **body):
    return json.dumps({"type": "marginal-set", "encoding": encoding, "word": word, **body})


_MALFORMED_SETS = {
    "interval-short-row": _set("interval", box=[[0, 1], [1]]),
    "interval-non-list-row": _set("interval", box=[[0, 1], 5]),
    "interval-pair-word": _set("interval", word=_PAIR_WORD, box=[[0, 1], [1, 0]]),
    "raw-item-not-a-list": _set("raw", tuples=[5]),
    "raw-wrong-arity": _set("raw", tuples=[[_ID, _ID]]),
    "raw-wrong-dimension": _set("raw", tuples=[[[[0]]]]),
    "word-constants-not-a-list": _set("raw", word={**_WORD, "constants": 5}, tuples=[]),
    "word-summands-not-a-list": _set("raw", word={**_WORD, "summands": 5}, tuples=[]),
    "word-summand-not-a-list": _set("raw", word={**_WORD, "summands": [5]}, tuples=[]),
    "delta-diff-not-a-list": _set("delta", base=_ID, diffs=[5]),
    "delta-position-not-an-int": _set("delta", base=_ID, diffs=[[[["a", 1], 0]]]),
    "delta-pair-word": _set("delta", word=_PAIR_WORD, base=_ID, diffs=[]),
    "json-nested-100000-deep": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_SETS))
def test_malformed_set_file_is_one_exit_2_record(run, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(_MALFORMED_SETS[name])
    code, out = run("verify-marginal", "--set", str(path))
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["reason"] == "malformed-input"


def test_oversized_interval_box_is_rejected_fast(run, tmp_path):
    # a 3x3 box with every cell [0, 3] stands for 4**9 = 262,144 tuples
    word = {**_WORD, "dim": 3, "constants": [[[0, 0, 0]] * 3],
            "summands": [[["const", 0]], [["circle", 0]]]}
    path = tmp_path / "box.json"
    path.write_text(_set("interval", word=word, box=[[[0, 3]] * 3] * 3))
    assert len(path.read_bytes()) < 300
    start = time.perf_counter()
    code, out = run("verify-marginal", "--set", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["reason"] == "malformed-input"


def test_failed_self_check_is_one_exit_1_record(run, tmp_path, params_file, monkeypatch):
    import tropmarg.marginal as marginal
    from tropmarg.matrix import scalar_mul

    monkeypatch.setattr(marginal, "mat_mul", lambda a, b: scalar_mul(1, a))
    code, out = run(
        "gen-marginal", "--word", "right", "--in", str(params_file),
        "--count", "2", "--out", str(tmp_path / "set.json"),
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["reason"] == "self-check-failed"


def test_selftest_passes_under_python_dash_o():
    import os
    import subprocess
    import sys

    import tropmarg

    src = os.path.dirname(os.path.dirname(tropmarg.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys; from tropmarg.cli import main; sys.exit(main(['selftest']))"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "14/14 checks passed" in proc.stdout


def _transcript_mutations():
    def message_items(t):
        t["messages"][0]["payload"] = {"kind": "matrix-tuple", "items": 5}

    return {
        "messages-not-an-array": lambda t: t.update(messages=5),
        "messages-an-object": lambda t: t.update(messages={"u": t["messages"][0]}),
        "annotations-not-an-array": lambda t: t.update(annotations=5),
        "annotations-a-string": lambda t: t.update(annotations="keys agree"),
        "params-not-an-object": lambda t: t.update(params=5),
        "params-an-array": lambda t: t.update(params=[]),
        "matrix-tuple-items-not-an-array": message_items,
    }


@pytest.mark.parametrize("name", sorted(_transcript_mutations()))
def test_malformed_transcript_file_is_one_exit_2_record(run, tmp_path, name):
    t_file = tmp_path / "t.json"
    assert run(
        "run-protocol", "sidelnikov", "--params", "builtin:attack-demo",
        "--out", str(t_file),
    )[0] == 0
    transcript = json.loads(t_file.read_text())
    _transcript_mutations()[name](transcript)
    t_file.write_text(json.dumps(transcript))
    code, out = run("attack", "--transcript", str(t_file), "--out", str(tmp_path / "r.json"))
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["reason"] == "malformed-input"


@pytest.mark.parametrize("value", [MAX_POLY_DEGREE + 1, 10**30])
def test_params_file_degree_above_cap_is_rejected_fast(run, tmp_path, params_file, value):
    params = json.loads(params_file.read_text())
    params["left"][0]["max_degree"] = value
    params_file.write_text(json.dumps(params))
    start = time.perf_counter()
    code, out = run(
        "gen-marginal", "--word", "right", "--in", str(params_file),
        "--count", "1", "--out", str(tmp_path / "set.json"),
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["reason"] == "malformed-input"


@pytest.mark.parametrize("value", [MAX_TUPLES + 1, 10**30])
def test_params_file_tuple_count_above_cap_is_rejected_fast(run, tmp_path, params_file, value):
    params = json.loads(params_file.read_text())
    params["n_tuples"] = value
    params_file.write_text(json.dumps(params))
    start = time.perf_counter()
    code, out = run(
        "run-protocol", "sandwich", "--params", str(params_file),
        "--out", str(tmp_path / "t.json"),
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["reason"] == "malformed-input"


@pytest.mark.parametrize("option", ["--family", "--tuples"])
def test_gen_params_writes_only_what_reads_back(run, tmp_path, option):
    def gen(value, path):
        family = f"poly:deg={value}" if option == "--family" else "poly"
        tuples = str(value) if option == "--tuples" else "3"
        return run(
            "gen-params", "--semiring", "min-plus", "--dim", "2", "--range", "0..9",
            "--family", family, "--tuples", tuples, "--seed", "1", "--out", str(path),
        )

    cap = MAX_POLY_DEGREE if option == "--family" else MAX_TUPLES
    at_cap = tmp_path / "at-cap.json"
    assert gen(cap, at_cap)[0] == 0
    decode_params(read_bytes(str(at_cap)))
    above = tmp_path / "above.json"
    code, out = gen(cap + 1, above)
    assert code == 2 and not above.exists()
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["reason"] == "bad-arguments"
