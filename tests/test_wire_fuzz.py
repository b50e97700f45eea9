"""Fuzzing the decoders and the file-reading CLI subcommands.

Inputs are arbitrary bytes, byte-level edits of valid files and JSON-level
edits of valid files (a value replaced, a key or an item dropped, anywhere
or at the top level).  Every
`wire.decode_*` must return a value that its encoder writes again, or raise
`WireFormatError` or `MarginalVerificationError`; `cli.main` must return 0, 1, 2 or 3 and print
exactly one record.  The other way round, `encode_report` must raise
`WireFormatError` on every report whose bytes `decode_report` would refuse.
The runs are derandomized, so the suite sees the same inputs on every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tropmarg.fixtures as fx
from tropmarg import marginal, matrix
from tropmarg.cli import main
from tropmarg.families import (
    CirculantFamily,
    JonesDeformFamily,
    LdpFamily,
    LowerSCirculantFamily,
    PolyFamily,
    UpperTCirculantFamily,
    sample_jones,
)
from tropmarg.marginal import (
    MAX_WORD_ATOMS,
    MarginalVerificationError,
    make_marginal_set,
    right_word,
)
from tropmarg.matrix import dual, identity, make_matrix, mat_mul
from tropmarg.protocols import (
    Message,
    NoDecomposition,
    ProtocolParams,
    attack_decomposition,
    power_basis,
    run_protocol_sandwich,
    run_sidelnikov,
)
from tropmarg.semiring import NEG_INF, POS_INF, SemiringKind
from tropmarg.wire import (
    WireFormatError,
    decode_marginal_set,
    decode_matrix,
    decode_params,
    decode_report,
    decode_transcript,
    decode_word,
    encode_marginal_set,
    encode_matrix,
    encode_params,
    encode_report,
    encode_transcript,
    encode_word,
)

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS

# by the first word of a valid file's name
DECODERS = {
    "matrix": decode_matrix,
    "word": decode_word,
    "set": decode_marginal_set,
    "params": decode_params,
    "transcript": decode_transcript,
    "report": decode_report,
}
ENCODERS = {
    "matrix": encode_matrix,
    "word": encode_word,
    "set": encode_marginal_set,
    "params": encode_params,
    "transcript": encode_transcript,
    "report": encode_report,
}
TYPED = (WireFormatError, MarginalVerificationError)
FUZZ = settings(
    max_examples=250,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Valid files to start from


def _square(kind, rng, n):
    return make_matrix(kind, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def _params(kind, left, right, rng, n=3):
    return ProtocolParams(
        kind=kind,
        dim=n,
        publics=(_square(kind, rng, n),),
        left_families=(left,),
        right_families=(right,),
        n_tuples=2,
        l=40 if kind is MIN else -40,
        l1=-8,
        l2=8,
        seed=rng.randrange(2**31),
    )


def _valid_files() -> dict[str, bytes]:
    rng = random.Random("fuzz")
    poly = _params(MIN, PolyFamily(_square(MIN, rng, 3), 2, -9, 9),
                   PolyFamily(_square(MIN, rng, 3), 2, -9, 9), rng)
    others = [
        _params(MAX, CirculantFamily(MAX, 3, -9, 9), UpperTCirculantFamily(MAX, 3, 2, -9, 9), rng),
        _params(MAX, LowerSCirculantFamily(MAX, 3, 1, -9, 9),
                JonesDeformFamily(sample_jones(3, -9, 9, rng)), rng),
        _params(MIN, LdpFamily(3, 2, -1), LdpFamily(3, 2, -1), rng),
    ]
    baseline = run_sidelnikov(poly, random.Random(poly.seed))
    u, v = baseline.message("u"), baseline.message("v")
    basis_l = power_basis(poly.left_families[0].base, 2)
    basis_r = power_basis(poly.right_families[0].base, 2)
    try:
        candidate, z = attack_decomposition(poly.publics[0], u, v, basis_l, basis_r)
        decomposed = True
    except NoDecomposition as e:
        candidate, z, decomposed = None, e.z_table, False
    report = {
        "protocol": baseline.protocol, "degree": 2, "kind": MIN,
        "decomposed": decomposed, "match": candidate == baseline.key_a,
        "z": z, "candidate": candidate, "expected": baseline.key_a,
    }
    right = make_marginal_set(right_word(fx.DEF3_A), [fx.DEF3_C1, fx.DEF3_C2])
    files = {
        "matrix": encode_matrix(fx.DEF3_A),
        "word": encode_word(right.word),
        "set-raw": encode_marginal_set(right),
        "set-interval": encode_marginal_set(fx.compression_box_set(), "interval"),
        "set-delta": encode_marginal_set(fx.compression_delta_set(), "delta"),
        "params": encode_params(poly),
        "transcript": encode_transcript(baseline),
        "transcript-sets": encode_transcript(run_protocol_sandwich(poly, random.Random(1))),
        "report": encode_report(report),
    }
    for i, p in enumerate(others):
        files[f"params-{i}"] = encode_params(p)
    return files


VALID = _valid_files()

# ---------------------------------------------------------------------------
# Mutations

# An int literal of 5,000 digits, past Python's int-string limit: json.dumps
# cannot write such an int, so a leaf holds this marker and _dumps writes
# the digits in its place.
_BIG_INT = "<5000 digits>"


def _dumps(obj) -> bytes:
    return json.dumps(obj).replace(json.dumps(_BIG_INT), "9" * 5000).encode()


# Numeric edges: the big int, and NaN and Infinity, which json.dumps writes
# for these floats.  Token edges: scalar strings scalar_to_token never writes.
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([2**40, -(2**40), 10**30, _BIG_INT, float("nan"), float("inf")]),
    st.sampled_from(["inf", "-inf", "1/2", "3/0", "x", "", "min-plus", "max-plus",
                     "raw", "interval", "delta", "poly", "matrix"]),
    st.sampled_from(["5", " 5", "5_0", "+5", "\uff11\uff12", "1/-2", "2/4", "4/2", "0/5"]),
)
json_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["kind", "dim", "rows", "type", "x"]), inner, max_size=3),
    ),
    max_leaves=6,
)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _paths(obj[key], prefix + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _paths(item, prefix + (i,))


@st.composite
def json_mutants(draw, name):
    obj = json.loads(VALID[name])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        path = draw(st.sampled_from(paths))
        if not path:
            continue
        parent = obj
        for step in path[:-1]:
            parent = parent[step]
        key = path[-1]
        if draw(st.booleans()):
            parent[key] = draw(json_values)
        elif isinstance(parent, dict):
            del parent[key]
        else:
            parent.pop(key)
    return _dumps(obj)


@st.composite
def field_edits(draw, name):
    """One top-level field of a valid file dropped or replaced by a leaf;
    json_mutants reaches the top level seldom, since most paths are deep."""
    obj = json.loads(VALID[name])
    key = draw(st.sampled_from(sorted(obj)))
    if draw(st.booleans()):
        del obj[key]
    else:
        obj[key] = draw(_leaves)
    return _dumps(obj)


@st.composite
def byte_mutants(draw, name):
    data = bytearray(VALID[name])
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data[i:j] = draw(st.binary(max_size=8))
    return bytes(data)


def mutants(names):
    names = st.sampled_from(sorted(names))
    return st.one_of(
        st.binary(max_size=200),
        names.flatmap(json_mutants),
        names.flatmap(field_edits),
        names.flatmap(byte_mutants),
    )


# ---------------------------------------------------------------------------
# Decoders


def _decoder(name):
    return DECODERS[name.split("-")[0]]


def test_valid_files_decode():
    for name, data in VALID.items():
        _decoder(name)(data)


def _edit(name, change):
    obj = json.loads(VALID[name])
    change(obj)
    return _dumps(obj)


def _set_atom(obj):
    obj["word"]["summands"][0][0] = [["box"], 0]


def _pad_word(obj):
    obj["word"]["summands"][0] += [["const", 0]] * MAX_WORD_ATOMS


def _set_family(side, **fields):
    def change(obj):
        obj[side][0].update(fields)

    return change


# Inputs the fuzzing found escaping as TypeError or ValueError, from a
# decoder or from the CLI run on what it decoded, a report without each of
# its matrix fields, and numbers the parser alone refuses (an int over the
# digit limit, NaN); each is rejected when it is decoded.
REGRESSIONS = {
    "word-atom-tag-a-list": ("set-raw", _set_atom),
    "word-over-the-atom-cap": ("set-raw", _pad_word),
    "report-z-row-an-int": ("report", lambda obj: obj["z"].__setitem__(1, 9)),
    "report-without-protocol": ("report", lambda obj: obj.pop("protocol")),
    "report-decomposed-an-int": ("report", lambda obj: obj.update(decomposed=5)),
    "report-degree-a-bool": ("report", lambda obj: obj.update(degree=True)),
    "report-without-z": ("report", lambda obj: obj.pop("z")),
    "report-without-candidate": ("report", lambda obj: obj.pop("candidate")),
    "report-without-expected": ("report", lambda obj: obj.pop("expected")),
    "circulant-hi-an-object": ("params-0", _set_family("left", hi={})),
    "circulant-empty-range": ("params-0", _set_family("left", lo=5, hi=4)),
    "upper-t-lo-a-string": ("params-0", _set_family("right", lo="x")),
    "jones-max-denominator-0": ("params-1", _set_family("right", max_denominator=0)),
    "max-plus-upper-t-scale-inf": ("params-0", _set_family("right", t="inf")),
    "max-plus-lower-s-scale-inf": ("params-1", _set_family("left", s="inf")),
    "matrix-entry-5000-digits": ("matrix", lambda obj: obj["rows"][0].__setitem__(0, _BIG_INT)),
    "matrix-entry-nan": ("matrix", lambda obj: obj["rows"][0].__setitem__(0, float("nan"))),
    "params-seed-nan": ("params", lambda obj: obj.update(seed=float("nan"))),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_found_escapes_are_format_errors(case):
    name, change = REGRESSIONS[case]
    with pytest.raises(WireFormatError):
        _decoder(name)(_edit(name, change))


def test_an_over_long_word_is_refused_before_any_product(monkeypatch):
    # a dim-16 one-tuple right-word set whose word gains 1,000 A factors
    # still verifies (A⊗X = A), at one product per atom
    a = make_matrix(MIN, [[(i * 7 + j * 3) % 11 for j in range(16)] for i in range(16)])
    obj = json.loads(encode_marginal_set(make_marginal_set(right_word(a), [identity(MIN, 16)])))
    obj["word"]["summands"][0] += [["const", 0]] * 1000
    calls = []

    def counted(x, y):
        calls.append(None)
        return mat_mul(x, y)

    monkeypatch.setattr(matrix, "mat_mul", counted)
    monkeypatch.setattr(marginal, "mat_mul", counted)
    word = {"type": "word", **obj["word"]}
    for decode, data in ((decode_marginal_set, obj), (decode_word, word)):
        with pytest.raises(WireFormatError, match=f"more than {MAX_WORD_ATOMS} atoms"):
            decode(_dumps(data))
    assert calls == []


@settings(FUZZ, max_examples=600)
@given(mutants(VALID))
def test_decoders_return_or_raise_typed_errors(data):
    for name, decode in DECODERS.items():
        try:
            value = decode(data)
        except TYPED:
            continue
        ENCODERS[name](value)


# ---------------------------------------------------------------------------
# The report encoder refuses what the decoder refuses

_MIN_W = make_matrix(MIN, [[0, POS_INF], [2, 1]])
_MAX_W = make_matrix(MAX, [[0, NEG_INF], [2, 1]])
_VALID_REPORT = {
    "protocol": "sidelnikov", "degree": 2, "kind": MIN, "decomposed": True, "match": False,
    "z": ((0, -2), (5, POS_INF)), "candidate": _MIN_W, "expected": _MIN_W,
}
# each field's values, the valid ones first
_REPORT_VALUES = {
    "protocol": ["one-sided", "sandwich", "multiblock", "nope", 3, None, ""],
    "degree": [0, 64, 65, -1, True, False, "2", 2.0, None],
    "kind": [MAX, "min-plus", "bogus", None, 0],
    "decomposed": [False, 1, 0, None, "yes"],
    "match": [True, None, 3, 1, 0, "no"],
    "z": [None, [], [[1]], 5, [5], "ab", [[1.5]], [[True]], [["1/0"]]],
    "candidate": [None, _MAX_W, make_matrix(MAX, [[0, 1], [2, 1]]), [[1]], 4],
    "expected": [None, _MAX_W, [[0]], "x"],
}


@st.composite
def report_inputs(draw):
    """The valid report with up to three fields replaced or dropped."""
    report = dict(_VALID_REPORT)
    for name in draw(st.sets(st.sampled_from(sorted(_REPORT_VALUES)), max_size=3)):
        if draw(st.integers(0, 5)):
            report[name] = draw(st.sampled_from(_REPORT_VALUES[name]))
        else:
            del report[name]
    return report


@FUZZ
@given(report_inputs())
def test_the_report_encoder_writes_only_what_decodes(report):
    try:
        data = encode_report(report)
    except WireFormatError:
        return
    assert encode_report(decode_report(data)) == data


@pytest.mark.parametrize(
    "fields",
    [
        {"protocol": "nope", "degree": 65, "match": 3},
        {"protocol": "nope"},
        {"degree": 65},
        {"degree": True},
        {"match": 3},
        {"decomposed": 1},
        {"kind": "bogus"},
        {"candidate": _MAX_W},
        {"z": [[1.5]]},
        {"z": 5},
    ],
    ids=repr,
)
def test_the_report_encoder_refuses_what_the_decoder_refuses(fields):
    report = {**_VALID_REPORT, **fields}
    with pytest.raises(WireFormatError):
        encode_report(report)


# ---------------------------------------------------------------------------
# A transcript owns its fields: the encoder writes only what decodes

_TRANSCRIPT = decode_transcript(VALID["transcript-sets"])
_OTHER_DIM = make_matrix(MIN, [[0, 1], [2, 3]])
_MAX_SET = make_marginal_set(right_word(dual(fx.DEF3_A)), [dual(fx.DEF3_C1)])


@pytest.mark.parametrize(
    "build",
    [
        lambda t: replace(t, protocol="nope"),
        lambda t: replace(t, seed=True),
        lambda t: replace(t, annotations=(1,)),
        lambda t: Message("carol", "u", t.messages[0].payload),
        lambda t: replace(t, messages=(1,)),
        lambda t: replace(t, key_a=dual(t.key_a)),
        lambda t: replace(t, key_b=_OTHER_DIM),
        lambda t: replace(t, key_a=None),
        lambda t: replace(t, params=None),
        lambda t: replace(t, messages=(Message("alice", "u", dual(t.message("u"))),)),
        lambda t: replace(t, messages=(Message("alice", "u", (_OTHER_DIM,)),)),
        lambda t: replace(t, messages=(Message("alice", "M1", _MAX_SET),)),
        lambda t: Message("alice", "u", "x"),
        lambda t: Message("alice", "u", (t.key_a, "x")),
        lambda t: Message("alice", "u", [t.key_a]),
    ],
    ids=["protocol", "seed", "annotation", "sender", "message", "key-kind", "key-dim",
         "key-none", "params-none", "payload-kind", "item-dim", "set-kind", "payload-str",
         "item-str", "payload-list"],
)
def test_a_transcript_that_would_not_decode_does_not_build(build):
    with pytest.raises((TypeError, ValueError)):
        build(_TRANSCRIPT)


_TRANSCRIPT_VALUES = {
    "protocol": ["sidelnikov", "one-sided", "multiblock", "nope", "", 3, None],
    "seed": [0, -5, 2**40, True, False, 1.0, "7", None],
    "annotations": [(), ("x", "y"), (1,), ("a", None), (b"x",)],
    "sender": ["alice", "bob", "carol", "", None, 1],
    "label": ["u", "", 5, None, b"u"],
    "payload": [
        _TRANSCRIPT.message("u"), dual(_TRANSCRIPT.message("u")), _OTHER_DIM, (),
        (_TRANSCRIPT.key_a, _TRANSCRIPT.key_b), (_TRANSCRIPT.key_a, _OTHER_DIM), _MAX_SET,
        make_marginal_set(right_word(fx.DEF3_A), [fx.DEF3_C1]), "x", None, [],
    ],
    "messages": [(), (1,), _TRANSCRIPT.messages[::-1], _TRANSCRIPT.messages[:1]],
    "key_a": [_TRANSCRIPT.key_b, dual(_TRANSCRIPT.key_a), _OTHER_DIM, None, "x"],
}


@st.composite
def transcript_edits(draw):
    """Up to three of the valid transcript's fields, with new values: sender,
    label and payload are those of its first message."""
    names = draw(st.sets(st.sampled_from(sorted(_TRANSCRIPT_VALUES)), max_size=3))
    return {name: draw(st.sampled_from(_TRANSCRIPT_VALUES[name])) for name in sorted(names)}


@FUZZ
@given(transcript_edits())
def test_every_transcript_that_builds_round_trips(edits):
    t = _TRANSCRIPT
    first = {k: edits.pop(k) for k in ("sender", "label", "payload") if k in edits}
    try:
        t = replace(t, messages=(replace(t.messages[0], **first), *t.messages[1:]))
        t = replace(t, **edits)
    except (TypeError, ValueError):
        return
    data = encode_transcript(t)
    back = decode_transcript(data)
    assert back == replace(t, params=t.public_params())
    assert encode_transcript(back) == data


# ---------------------------------------------------------------------------
# CLI


def _cli(argv) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().splitlines()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_one_record(code, lines):
    assert code in (0, 1, 2, 3)
    assert len(lines) == 1
    if code:
        assert json.loads(lines[0])["code"] == code


@FUZZ
@given(mutants([n for n in VALID if n.startswith(("set", "word"))]))
def test_verify_marginal_exit_contract(workdir, data):
    path = workdir / "set.json"
    path.write_bytes(data)
    _assert_one_record(*_cli(["verify-marginal", "--set", str(path)]))


@FUZZ
@given(mutants([n for n in VALID if n.startswith("transcript")]))
def test_attack_exit_contract(workdir, data):
    path = workdir / "transcript.json"
    path.write_bytes(data)
    _assert_one_record(
        *_cli(["attack", "--transcript", str(path), "--degree", "1",
               "--out", str(workdir / "report.json")])
    )


@FUZZ
@given(mutants([n for n in VALID if n.startswith("params")]))
def test_gen_marginal_exit_contract(workdir, data):
    path = workdir / "params.json"
    path.write_bytes(data)
    _assert_one_record(
        *_cli(["gen-marginal", "--word", "right", "--in", str(path), "--count", "2",
               "--out", str(workdir / "set-out.json")])
    )
