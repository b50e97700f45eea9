import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropmarg.fixtures as fx
import tropmarg.wire as wire
from tropmarg.families import (
    CirculantFamily,
    JonesDeformFamily,
    LdpFamily,
    LowerSCirculantFamily,
    PolyFamily,
    UpperTCirculantFamily,
)
from tropmarg.marginal import (
    MarginalSet,
    MarginalVerificationError,
    WordTemplate,
    additive_word,
    make_marginal_set,
    right_word,
    sample_n_factor_marginal,
    sandwich_word,
)
from tropmarg.matrix import Matrix, make_matrix, scalar_mul
from tropmarg.protocols import MAX_TUPLES, ProtocolParams, run_protocol_sandwich, run_sidelnikov
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
    from_canonical_bytes,
    read_bytes,
    scalar_to_token,
    to_canonical_bytes,
    token_to_scalar,
    write_bytes,
)

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS


class TestScalarTokens:
    def test_round_trips(self):
        for x in (0, -17, Fraction(3, 4), Fraction(-5, 2), POS_INF, NEG_INF):
            assert token_to_scalar(scalar_to_token(x)) == x
        # what scalar_to_token writes for Fraction(0) and Fraction(1)
        assert token_to_scalar(scalar_to_token(Fraction(0))) == 0
        assert type(token_to_scalar("1/1")) is int

    def test_infinities_are_strings(self):
        assert scalar_to_token(POS_INF) == "inf"
        assert scalar_to_token(NEG_INF) == "-inf"
        assert scalar_to_token(Fraction(1, 3)) == "1/3"

    def test_bool_rejected(self):
        with pytest.raises(WireFormatError):
            scalar_to_token(True)
        with pytest.raises(WireFormatError):
            token_to_scalar(False)

    @pytest.mark.parametrize("junk", [True, False, 1.5, float("inf"), "3", None, [1]])
    def test_non_scalars_not_serialized(self, junk):
        with pytest.raises(WireFormatError):
            scalar_to_token(junk)

    def test_bad_tokens_rejected(self):
        # only the tokens scalar_to_token writes decode: no "p/q" that is not
        # the Fraction's own numerator/denominator in ASCII, no int string
        for tok in (
            "", "one", "1.5", "1/0", None, [1],
            "5", " 5", "5_0", "+5", "\uff11\uff12", "1/-2", "2/4", "4/2", "0/5",
        ):
            with pytest.raises(WireFormatError):
                token_to_scalar(tok)


class TestCanonicalJson:
    def test_shape(self):
        data = to_canonical_bytes({"b": 1, "a": [2, 3]})
        assert data == b'{"a":[2,3],"b":1}\n'

    def test_floats_rejected_on_read(self):
        with pytest.raises(WireFormatError):
            from_canonical_bytes(b'{"x":1.5}\n')

    @pytest.mark.parametrize(
        "literal",
        [b"NaN", b"Infinity", b"-Infinity", b"9" * 5000],
        ids=["NaN", "Infinity", "-Infinity", "int-of-5000-digits"],
    )
    def test_non_finite_and_over_long_numbers_rejected_on_read(self, literal):
        # NaN and the infinities would parse to floats, and an int past
        # Python's digit limit raises a bare ValueError inside json.loads
        with pytest.raises(WireFormatError):
            from_canonical_bytes(b'{"x":' + literal + b"}\n")

    @pytest.mark.parametrize("shape", ["list", "dict"])
    def test_a_cycle_is_refused_on_write(self, shape):
        # the encoder skips json's cycle walk; a self-containing object
        # still ends as WireFormatError, through the recursion limit
        obj = [] if shape == "list" else {}
        if shape == "list":
            obj.append(obj)
        else:
            obj["x"] = obj
        with pytest.raises(WireFormatError):
            to_canonical_bytes(obj)

    def test_garbage_rejected(self):
        with pytest.raises(WireFormatError):
            from_canonical_bytes(b"not json at all")
        with pytest.raises(WireFormatError):
            from_canonical_bytes(b"\xff\xfe")

    def test_atomic_write_and_read(self, tmp_path):
        p = tmp_path / "out.json"
        write_bytes(str(p), b"payload\n")
        assert read_bytes(str(p)) == b"payload\n"


class TestMatrixCodec:
    def test_round_trip_with_infinities(self):
        m = make_matrix(MIN, [[0, POS_INF], [Fraction(1, 2), -3]])
        assert decode_matrix(encode_matrix(m)) == m

    def test_bytes_are_stable(self):
        data = encode_matrix(fx.OS_W)
        assert encode_matrix(decode_matrix(data)) == data

    def test_wrong_type_tag(self):
        with pytest.raises(WireFormatError):
            decode_matrix(encode_word(right_word(fx.BIL_A)))

    def test_wrong_sign_infinity_rejected(self):
        payload = to_canonical_bytes(
            {"type": "matrix", "kind": "min-plus", "rows": [["-inf"]]}
        )
        with pytest.raises(WireFormatError):
            decode_matrix(payload)

    @pytest.mark.parametrize(
        "value,written",
        [
            (10**5000, "1" + "0" * 5000),
            (-(10**5000), "-1" + "0" * 5000),
            (Fraction(1, 10**5000), '"1/1' + "0" * 5000 + '"'),
            (Fraction(10**5000 + 1, 2), '"1' + "0" * 4999 + '1/2"'),
        ],
        ids=["int", "negative-int", "fraction-denominator", "fraction-numerator"],
    )
    def test_over_long_scalars_refused_on_write_as_on_read(self, value, written):
        # a part past Python's int-string digit limit cannot be written;
        # the encoder says so as the decoder does, not with a bare ValueError
        m = make_matrix(MIN, [[value]])
        with pytest.raises(WireFormatError):
            encode_matrix(m)
        with pytest.raises(WireFormatError):
            decode_matrix(
                b'{"kind":"min-plus","rows":[[' + written.encode() + b']],"type":"matrix"}\n'
            )


class TestWordCodec:
    @pytest.mark.parametrize(
        "word",
        [
            right_word(fx.DEF3_A),
            sandwich_word(fx.BIL_A),
            additive_word(fx.DEF3_A),
        ],
        ids=["right", "sandwich", "additive"],
    )
    def test_round_trip(self, word):
        data = encode_word(word)
        back = decode_word(data)
        assert back == word
        assert encode_word(back) == data

    def test_malformed_atom(self):
        obj = from_canonical_bytes(encode_word(right_word(fx.DEF3_A)))
        obj["summands"][0][0] = ["triangle", 0]
        with pytest.raises(WireFormatError):
            decode_word(to_canonical_bytes(obj))


class TestMarginalSetCodec:
    def test_raw_round_trip(self):
        s = make_marginal_set(right_word(fx.DEF3_A), [fx.DEF3_C1, fx.DEF3_C2])
        data = encode_marginal_set(s)
        back = decode_marginal_set(data)
        assert back.tuples == s.tuples
        assert encode_marginal_set(back) == data

    def test_interval_golden(self):
        s = fx.compression_box_set()
        obj = from_canonical_bytes(encode_marginal_set(s, encoding="interval"))
        assert obj["encoding"] == "interval"
        assert obj["box"] == fx.CMP_BOX_FORM

    def test_interval_decode_expands_the_box(self):
        s = fx.compression_box_set()
        back = decode_marginal_set(encode_marginal_set(s, encoding="interval"))
        assert set(back.tuples) == set(s.tuples)
        assert len(back.tuples) == 10
        # box order (cells row by row, last cell fastest) is the rows' order
        assert back.tuples == tuple(sorted(s.tuples, key=lambda t: t[0].rows))

    def test_delta_golden(self):
        s = fx.compression_delta_set()
        obj = from_canonical_bytes(encode_marginal_set(s, encoding="delta"))
        assert obj["encoding"] == "delta"
        assert obj["base"] == fx.CMP_DELTA_BASE
        assert obj["diffs"] == fx.CMP_DELTA_DIFFS
        back = decode_marginal_set(encode_marginal_set(s, encoding="delta"))
        assert back.tuples == s.tuples  # delta preserves order exactly

    def test_interval_falls_back_for_non_boxes(self):
        s = fx.compression_delta_set()  # three matrices, not a full box
        obj = from_canonical_bytes(encode_marginal_set(s, encoding="interval"))
        assert obj["encoding"] in ("delta", "raw")

    def test_pair_sets_fall_back_to_raw(self):
        rng = random.Random(2)
        from tropmarg.marginal import sample_sandwich_marginal

        s = sample_sandwich_marginal(fx.BIL_A, 2, -5, 5, rng)
        obj = from_canonical_bytes(encode_marginal_set(s, encoding="interval"))
        assert obj["encoding"] == "raw"

    def test_unknown_encoding_rejected(self):
        s = fx.compression_box_set()
        with pytest.raises(WireFormatError):
            encode_marginal_set(s, encoding="zip")

    def test_interval_box_above_the_bound_is_rejected_unexpanded(self):
        obj = from_canonical_bytes(
            encode_marginal_set(fx.compression_box_set(), encoding="interval")
        )
        obj["box"][0][1] = [0, 10**30]
        with pytest.raises(WireFormatError, match="more than"):
            decode_marginal_set(to_canonical_bytes(obj))

    def test_interval_box_with_an_empty_cell_is_empty_whatever_its_other_cells(self):
        obj = from_canonical_bytes(
            encode_marginal_set(fx.compression_box_set(), encoding="interval")
        )
        obj["box"][0] = [[0, 10**30], [1, 0]]  # volume 0: no cell is listed
        assert decode_marginal_set(to_canonical_bytes(obj)).tuples == ()

    def test_interval_bound_is_inclusive(self, monkeypatch):
        s = fx.compression_box_set()  # ten tuples
        data = encode_marginal_set(s, encoding="interval")
        monkeypatch.setattr(wire, "MAX_BOX_TUPLES", 10)
        assert set(decode_marginal_set(data).tuples) == set(s.tuples)
        monkeypatch.setattr(wire, "MAX_BOX_TUPLES", 9)
        with pytest.raises(WireFormatError, match="more than 9 tuples"):
            decode_marginal_set(data)

    def test_interval_falls_back_to_delta_above_the_bound(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_BOX_TUPLES", 9)
        s = fx.compression_box_set()
        data = encode_marginal_set(s, encoding="interval")
        assert from_canonical_bytes(data)["encoding"] == "delta"
        assert decode_marginal_set(data).tuples == s.tuples

    def test_interval_falls_back_to_delta_for_repeated_matrices(self):
        # two distinct matrices, each twice: as many tuples as the points of
        # the box between them, but only half of those points are in the set
        lo = make_matrix(MIN, [[0, 0], [0, 0]])
        hi = make_matrix(MIN, [[1, 1], [0, 0]])
        s = MarginalSet(additive_word(lo), ((lo,), (hi,), (lo,), (hi,)))
        data = encode_marginal_set(s, encoding="interval")
        assert from_canonical_bytes(data)["encoding"] == "delta"
        assert decode_marginal_set(data) == s

    # A delta body holds at most MAX_TUPLES tuples: an empty diff is three
    # bytes, but each costs a matrix and a word evaluation.
    def _line_set(self, n):
        """n single 2x2 matrices, (0, 0) from 0 to n - 1: a box of n points."""
        zero = make_matrix(MIN, [[0, 0], [0, 0]])
        mats = [make_matrix(MIN, [[x, 0], [0, 0]]) for x in range(n)]
        return MarginalSet(additive_word(zero), tuple((m,) for m in mats))

    def test_delta_body_above_the_cap_is_refused_before_any_matrix(self):
        obj = from_canonical_bytes(encode_marginal_set(self._line_set(2), encoding="delta"))
        obj["diffs"] = [[]] * (MAX_TUPLES - 1)
        assert len(decode_marginal_set(to_canonical_bytes(obj))) == MAX_TUPLES
        obj["diffs"].append([])
        obj["base"] = "not rows"  # refused on the count, before the base is read
        with pytest.raises(WireFormatError, match=f"more than {MAX_TUPLES} tuples"):
            decode_marginal_set(to_canonical_bytes(obj))

    def test_a_delta_body_verifies_each_distinct_tuple_once(self, monkeypatch):
        # 255 empty diffs repeat the base: one word evaluation, not 256
        zero = make_matrix(MIN, [[0] * 8] * 8)
        s = MarginalSet(additive_word(zero), ((zero,),))
        obj = from_canonical_bytes(encode_marginal_set(s, encoding="delta"))
        obj["diffs"] = [[]] * (MAX_TUPLES - 1)
        calls = []
        evaluate = WordTemplate.evaluate

        def counted(self, values):
            calls.append(values)
            return evaluate(self, values)

        monkeypatch.setattr(WordTemplate, "evaluate", counted)
        assert len(decode_marginal_set(to_canonical_bytes(obj))) == MAX_TUPLES
        assert len(calls) == 1

    def test_a_delta_body_names_every_failing_repeat(self):
        # tuples: good, bad, the same bad, good, the bad again
        obj = from_canonical_bytes(encode_marginal_set(self._line_set(1), encoding="delta"))
        bad, good = [[[1, 1], scalar_to_token(-1)]], [[[1, 1], scalar_to_token(0)]]
        obj["diffs"] = [bad, [], good, bad]
        with pytest.raises(MarginalVerificationError) as exc:
            decode_marginal_set(to_canonical_bytes(obj))
        assert exc.value.indices == (1, 2, 4)

    def test_above_the_delta_cap_sets_go_raw_and_boxes_stay_interval(self):
        box = self._line_set(300)
        repeat = MarginalSet(box.word, box.tuples + box.tuples[:1])  # not a box
        for s, encoding, used in (
            (box, "interval", "interval"),
            (box, "delta", "raw"),
            (repeat, "interval", "raw"),
        ):
            data = encode_marginal_set(s, encoding=encoding)
            assert from_canonical_bytes(data)["encoding"] == used
            assert decode_marginal_set(data) == s

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=1, max_size=6),
        st.data(),
    )
    def test_interval_keeps_the_multiset_of_a_set_with_repeats(self, cells, data):
        mats = [make_matrix(MIN, [c[:2], c[2:]]) for c in cells]
        mats.append(data.draw(st.sampled_from(mats)))  # at least one repeat
        zero = make_matrix(MIN, [[0, 0], [0, 0]])
        s = MarginalSet(additive_word(zero), tuple((m,) for m in mats))
        back = decode_marginal_set(encode_marginal_set(s, encoding="interval"))
        assert Counter(back.tuples) == Counter(s.tuples)

    def test_tampered_tuple_is_flagged_with_its_index(self):
        s = make_marginal_set(right_word(fx.DEF3_A), [fx.DEF3_C1, fx.DEF3_C2])
        obj = from_canonical_bytes(encode_marginal_set(s))
        obj["tuples"][1][0][0][0] = -40
        with pytest.raises(MarginalVerificationError) as exc:
            decode_marginal_set(to_canonical_bytes(obj))
        assert exc.value.indices == (1,)


def _params_with(spec, kind=MIN, dim=3, w=None):
    if w is None:
        w = fx.OS_W if kind is MIN else make_matrix(MAX, [[1, 0], [2, 1]])
    return ProtocolParams(
        kind=kind,
        dim=dim,
        publics=(w,),
        left_families=(spec,),
        right_families=(spec,),
        seed=7,
    )


class TestParamsCodec:
    @pytest.mark.parametrize(
        "params",
        [
            _params_with(PolyFamily(fx.OS_A, 3, -20, 20)),
            _params_with(CirculantFamily(MIN, 3, -9, 9)),
            _params_with(UpperTCirculantFamily(MIN, 3, 5, -9, 9)),
            _params_with(LowerSCirculantFamily(MIN, 3, Fraction(7, 2), -9, 9)),
            _params_with(JonesDeformFamily(fx.JONES_BASE), kind=MAX, dim=2),
            _params_with(LdpFamily(3, 12, -4)),
        ],
        ids=["poly", "circulant", "upper-t", "lower-s", "jones", "ldp"],
    )
    def test_round_trip_each_family(self, params):
        data = encode_params(params)
        back = decode_params(data)
        assert back == params
        assert encode_params(back) == data

    def test_scripted_params_refuse_to_serialize(self):
        with pytest.raises(WireFormatError):
            encode_params(fx.builtin_params("sandwich4x4"))

    def test_min_plus_only_family_rejects_flipped_kind(self):
        data = encode_params(_params_with(LdpFamily(3, 12, -4)))
        obj = from_canonical_bytes(data)
        obj["kind"] = "max-plus"
        with pytest.raises(WireFormatError):
            decode_params(to_canonical_bytes(obj))


class TestTranscriptCodec:
    def test_round_trip_single_matrix_messages(self):
        params = _params_with(PolyFamily(fx.OS_A, 2, -9, 9))
        t = run_sidelnikov(params, random.Random(params.seed))
        data = encode_transcript(t)
        back = decode_transcript(data)
        assert back.key_a == t.key_a and back.key_b == t.key_b
        assert back.agreed
        assert encode_transcript(back) == data

    def test_round_trip_marginal_set_messages(self):
        params = fx.builtin_params("sandwich4x4")
        t = run_protocol_sandwich(params, random.Random(params.seed))
        data = encode_transcript(t)
        back = decode_transcript(data)
        assert back.message("M1").tuples == t.message("M1").tuples
        assert encode_transcript(back) == data

    def test_unknown_protocol_rejected(self):
        params = _params_with(PolyFamily(fx.OS_A, 2, -9, 9))
        t = run_sidelnikov(params, random.Random(params.seed))
        obj = from_canonical_bytes(encode_transcript(t))
        obj["protocol"] = "quantum"
        with pytest.raises(WireFormatError):
            decode_transcript(to_canonical_bytes(obj))

    def test_tampered_key_still_decodes_but_disagrees(self):
        params = _params_with(PolyFamily(fx.OS_A, 2, -9, 9))
        t = run_sidelnikov(params, random.Random(params.seed))
        obj = from_canonical_bytes(encode_transcript(t))
        obj["keys"]["alice"][0][0] += 1
        back = decode_transcript(to_canonical_bytes(obj))
        assert not back.agreed

    def test_tampered_set_message_is_a_verification_error(self):
        # a ValueError, raised outside the decoder's format-error mapping
        params = fx.builtin_params("sandwich4x4")
        t = run_protocol_sandwich(params, random.Random(params.seed))
        obj = from_canonical_bytes(encode_transcript(t))
        sets = [m for m in obj["messages"] if m["payload"]["kind"] == "marginal-set"]
        sets[0]["payload"]["tuples"][1][0][0][0] = -500
        with pytest.raises(MarginalVerificationError) as exc:
            decode_transcript(to_canonical_bytes(obj))
        assert exc.value.indices == (1,)


class TestReportCodec:
    def test_round_trip(self):
        report = {
            "protocol": "sidelnikov",
            "degree": 3,
            "kind": MIN,
            "decomposed": True,
            "match": True,
            "z": ((0, -2), (5, POS_INF)),
            "candidate": fx.OS_W,
            "expected": fx.OS_W,
        }
        back = decode_report(encode_report(report))
        assert back["decomposed"] is True and back["match"] is True
        assert back["z"] == ((0, -2), (5, POS_INF))
        assert back["candidate"] == fx.OS_W
        assert back["kind"] is MIN

    def test_failure_report_keeps_nulls(self):
        report = {
            "protocol": "one-sided",
            "degree": 2,
            "kind": MIN,
            "decomposed": False,
            "match": None,
            "z": ((1,),),
            "candidate": None,
            "expected": None,
        }
        back = decode_report(encode_report(report))
        assert back["decomposed"] is False
        assert back["candidate"] is None and back["expected"] is None

    def test_canonical_bytes_parse_as_plain_json(self):
        data = encode_report(
            {
                "protocol": "sidelnikov",
                "degree": 0,
                "kind": MIN,
                "decomposed": False,
                "match": None,
                "z": None,
                "candidate": None,
                "expected": None,
            }
        )
        obj = json.loads(data)
        assert obj["type"] == "report"


@pytest.mark.parametrize("kind", [SemiringKind.MIN_PLUS, SemiringKind.MAX_PLUS])
@pytest.mark.parametrize("slots", [2, 3])
def test_fraction_chain_sets_round_trip_byte_equal(kind, slots):
    """The n-factor repair pass adds Fraction bounds to int entries; the
    entries must still come out canonical (Fraction(k, 1) is k)."""
    rng = random.Random(3)
    for _ in range(3):
        chain = [
            make_matrix(kind, [[Fraction(rng.randint(-20, 20), 2) for _ in range(2)]
                               for _ in range(2)])
            for _ in range(slots + 1)
        ]
        s = sample_n_factor_marginal(chain, 3, -8, 8, rng)
        data = encode_marginal_set(s)
        assert encode_marginal_set(decode_marginal_set(data)) == data
        assert not any(
            isinstance(x, Fraction) and x.denominator == 1
            for t in s.tuples for m in t for row in m.rows for x in row
        )


def _with_whole_fractions(m):
    """m (all-int) rebuilt directly, every entry given as Fraction(n, 1)."""
    return Matrix(m.kind, tuple(tuple(map(Fraction, row)) for row in m.rows))


@pytest.mark.parametrize(
    "encode, decode, value",
    [
        (encode_matrix, decode_matrix, _with_whole_fractions(fx.OS_A)),
        (
            encode_params,
            decode_params,
            _params_with(PolyFamily(_with_whole_fractions(fx.OS_A), 3, -20, 20)),
        ),
        (
            encode_marginal_set,
            decode_marginal_set,
            make_marginal_set(
                additive_word(_with_whole_fractions(fx.OS_A)),
                [_with_whole_fractions(scalar_mul(5, fx.OS_A))],
            ),
        ),
    ],
    ids=["matrix", "params", "marginal-set"],
)
def test_directly_built_matrices_encode_canonically(encode, decode, value):
    data = encode(value)
    assert b'/1"' not in data
    assert encode(decode(data)) == data
