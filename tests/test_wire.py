import json
import random
from fractions import Fraction

import pytest

import tropmarg.fixtures as fx
from tropmarg.families import (
    CirculantFamily,
    JonesDeformFamily,
    LdpFamily,
    LowerSCirculantFamily,
    PolyFamily,
    UpperTCirculantFamily,
)
from tropmarg.marginal import (
    additive_word,
    make_marginal_set,
    right_word,
    sample_n_factor_marginal,
    sandwich_word,
)
from tropmarg.matrix import make_matrix
from tropmarg.protocols import ProtocolParams, run_protocol_sandwich, run_sidelnikov
from tropmarg.semiring import NEG_INF, POS_INF, SemiringKind
from tropmarg.wire import (
    MarginalVerificationError,
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

    def test_infinities_are_strings(self):
        assert scalar_to_token(POS_INF) == "inf"
        assert scalar_to_token(NEG_INF) == "-inf"
        assert scalar_to_token(Fraction(1, 3)) == "1/3"

    def test_bool_rejected(self):
        with pytest.raises(WireFormatError):
            scalar_to_token(True)
        with pytest.raises(WireFormatError):
            token_to_scalar(False)

    def test_bad_tokens_rejected(self):
        for tok in ("", "one", "1.5", "1/0", None, [1]):
            with pytest.raises(WireFormatError):
                token_to_scalar(tok)


class TestCanonicalJson:
    def test_shape(self):
        data = to_canonical_bytes({"b": 1, "a": [2, 3]})
        assert data == b'{"a":[2,3],"b":1}\n'

    def test_floats_rejected_on_read(self):
        with pytest.raises(WireFormatError):
            from_canonical_bytes(b'{"x":1.5}\n')

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
