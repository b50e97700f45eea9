"""Canonical byte formats for matrices, words, marginal sets, params,
transcripts and attack reports.

Everything serializes to canonical JSON: sorted keys, no whitespace, UTF-8,
one trailing newline.  Scalars are decimal integers, rationals as "p/q"
strings, and the two infinities as "inf" / "-inf"; floats are rejected in
both directions.  Marginal sets support three encodings: raw tuples, an
interval form for sets that are exactly an axis-aligned integer box (single
matrices only), and a delta form storing the first matrix plus sparse diffs
against each predecessor.  Files are written atomically (write then rename).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from fractions import Fraction
from typing import get_args, get_type_hints

from .families import MAX_POLY_DEGREE, FamilySpec
from .marginal import Box, Circle, Const, MarginalSet, WordTemplate, box_marginal_set
from .matrix import Matrix
from .protocols import _EXCHANGES, MAX_TUPLES, Message, ProtocolParams, ProtocolTranscript
from .semiring import (
    NEG_INF,
    POS_INF,
    Scalar,
    SemiringKind,
    as_scalar,
)


class WireFormatError(ValueError):
    """Malformed bytes or an object that cannot be represented."""


# --------------------------------------------------------------------------
# Scalars and canonical JSON


def scalar_to_token(x: Scalar):
    if type(x) is int:
        return x
    if x is POS_INF:
        return "inf"
    if x is NEG_INF:
        return "-inf"
    if isinstance(x, bool):
        raise WireFormatError("bool is not a scalar")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        try:
            return f"{x.numerator}/{x.denominator}"
        except ValueError as e:  # a part past the int digit limit
            raise WireFormatError(f"scalar too long for the wire: {e}") from e
    raise WireFormatError(f"not a serializable scalar: {x!r}")


def token_to_scalar(tok) -> Scalar:
    if isinstance(tok, bool):
        raise WireFormatError("bool is not a scalar")
    if isinstance(tok, int):
        return tok
    if isinstance(tok, str):
        if tok == "inf":
            return POS_INF
        if tok == "-inf":
            return NEG_INF
        num, _, den = tok.partition("/")
        try:
            f = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as e:
            raise WireFormatError(f"bad scalar token {tok!r}") from e
        if tok == f"{f.numerator}/{f.denominator}":  # as scalar_to_token writes f
            return as_scalar(f)
    raise WireFormatError(f"bad scalar token {tok!r}")


def _reject_float(s: str):  # also NaN, Infinity and -Infinity
    raise WireFormatError(f"float literal {s!r} on the wire")


def to_canonical_bytes(obj) -> bytes:
    try:
        text = json.dumps(
            obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True, check_circular=False
        )
    except (ValueError, RecursionError) as e:  # an int past the digit limit, a cycle
        raise WireFormatError(f"not representable as canonical JSON: {e}") from e
    return (text + "\n").encode("utf-8")


def from_canonical_bytes(data: bytes):
    try:
        text = data.decode("utf-8")
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except WireFormatError:
        raise
    except (ValueError, RecursionError) as e:  # also an int over the digit limit
        raise WireFormatError(f"not canonical JSON: {e}") from e


def write_bytes(path: str, data: bytes) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wire-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# --------------------------------------------------------------------------
# Matrices and words


def _rows_out(m: Matrix):
    """JSON rows; an all-int matrix's rows go to json as they are."""
    if m.all_int:
        return m.rows
    return [[x if type(x) is int else scalar_to_token(x) for x in row] for row in m.rows]


def _is_list_of_lists(obj, n=None) -> bool:
    """With n given, also require exactly n lists of n items each."""
    if not isinstance(obj, list) or not all(isinstance(x, list) for x in obj):
        return False
    return n is None or len(obj) == n and all(len(x) == n for x in obj)


def _rows_in(kind: SemiringKind, rows) -> Matrix:
    if not _is_list_of_lists(rows):
        raise WireFormatError("matrix rows must be nested arrays")
    try:
        return Matrix(
            kind, tuple(tuple(token_to_scalar(x) for x in row) for row in rows)
        )
    except (TypeError, ValueError) as e:
        raise WireFormatError(str(e)) from e


def _kind_in(token) -> SemiringKind:
    try:
        return SemiringKind(token)
    except ValueError as e:
        raise WireFormatError(f"unknown semiring {token!r}") from e


def encode_matrix(m: Matrix) -> bytes:
    return to_canonical_bytes(
        {"type": "matrix", "kind": str(m.kind), "rows": _rows_out(m)}
    )


def decode_matrix(data: bytes) -> Matrix:
    obj = from_canonical_bytes(data)
    _expect_type(obj, "matrix")
    return _rows_in(_kind_in(obj.get("kind")), obj.get("rows"))


# An atom is [tag, its one field]: a constant's index or a slot.
_ATOM_TAGS = {"const": Const, "box": Box, "circle": Circle}
_TAG_OF = {cls: tag for tag, cls in _ATOM_TAGS.items()}


def _word_out(w: WordTemplate):
    return {
        "kind": str(w.kind),
        "dim": w.dim,
        "constants": [_rows_out(c) for c in w.constants],
        "summands": [[[_TAG_OF[type(a)], *vars(a).values()] for a in s] for s in w.summands],
    }


def _word_in(obj) -> WordTemplate:
    if not isinstance(obj, dict):
        raise WireFormatError("word must be an object")
    kind = _kind_in(obj.get("kind"))
    constants, raw_summands = obj.get("constants", []), obj.get("summands", [])
    if not _is_list_of_lists(constants) or not _is_list_of_lists(raw_summands):
        raise WireFormatError("word constants and summands must be arrays of arrays")
    constants = tuple(_rows_in(kind, rows) for rows in constants)
    summands = []
    for s in raw_summands:
        atoms = []
        for pair in s:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not isinstance(pair[0], str)
                or pair[0] not in _ATOM_TAGS
            ):
                raise WireFormatError(f"bad word atom {pair!r}")
            atoms.append(_ATOM_TAGS[pair[0]](pair[1]))
        summands.append(tuple(atoms))
    try:
        return WordTemplate(kind, obj.get("dim"), constants, tuple(summands))
    except (TypeError, ValueError) as e:
        raise WireFormatError(str(e)) from e


def encode_word(w: WordTemplate) -> bytes:
    return to_canonical_bytes({"type": "word", **_word_out(w)})


def decode_word(data: bytes) -> WordTemplate:
    obj = from_canonical_bytes(data)
    _expect_type(obj, "word")
    return _word_in(obj)


def _expect_type(obj, expected: str) -> None:
    if not isinstance(obj, dict) or obj.get("type") != expected:
        raise WireFormatError(f"expected a {expected} object")


# --------------------------------------------------------------------------
# Marginal sets: raw / interval / delta

# Most tuples an interval box may stand for.  The decoder expands every
# member into the set, so it rejects a larger box before expanding it,
# and the encoder writes such a set raw.  A few hundred bytes of box could
# otherwise stand for billions of tuples.  An empty delta diff is three
# bytes but one more matrix, so a delta body holds at most MAX_TUPLES.
MAX_BOX_TUPLES = 4096


def _box_form(s: MarginalSet):
    """Interval body if the set is exactly an integer box, else None: its
    matrices are all-int, distinct, and as many as the points between their
    entrywise minimum and maximum, which are then the box's corners (as
    many distinct points fit only in a box whose every cell is full).  Cell
    form: a bare value for a constant entry, [lo, hi] for a range."""
    mats = [m for (m,) in s.tuples]
    if not all(m.all_int for m in mats) or len({m.rows for m in mats}) != len(mats):
        return None
    corners = [
        [(min(cell), max(cell)) for cell in zip(*(m.rows[i] for m in mats))]
        for i in range(s.word.dim)
    ]
    points = math.prod(hi - lo + 1 for row in corners for lo, hi in row)
    if points != len(mats) or points > MAX_BOX_TUPLES:
        return None
    return {"box": [[lo if lo == hi else [lo, hi] for lo, hi in row] for row in corners]}


def _delta_form(s: MarginalSet):
    """Delta body: first matrix in full, then per matrix the 1-based
    ((i, j), value) cells that changed from its predecessor."""
    n = s.word.dim
    mats = [t[0] for t in s.tuples]
    diffs = []
    for prev, cur in zip(mats, mats[1:]):
        changes = [
            [[i + 1, j + 1], scalar_to_token(cur.rows[i][j])]
            for i in range(n)
            for j in range(n)
            if cur.rows[i][j] != prev.rows[i][j]
        ]
        diffs.append(changes)
    return {"base": _rows_out(mats[0]), "diffs": diffs}


def _raw_body(s: MarginalSet) -> dict:
    """The raw set body, a set's word and its tuples, as encode_marginal_set
    writes it and a transcript's set payload carries it."""
    return {"word": _word_out(s.word), "tuples": [[_rows_out(m) for m in t] for t in s.tuples]}


def encode_marginal_set(s: MarginalSet, encoding: str = "raw") -> bytes:
    """Serialize with the requested encoding, falling back silently down the
    ladder interval, delta, raw: interval and delta need a non-empty set of
    single matrices, interval also an exact integer box of distinct matrices
    (a set that repeats one falls back to delta), delta at most MAX_TUPLES
    tuples; raw always applies."""
    if encoding not in ("raw", "interval", "delta"):
        raise WireFormatError(f"unknown encoding {encoding!r}")
    used = encoding if s.word.arity == 1 and s.tuples else "raw"
    body = _box_form(s) if used == "interval" else None
    if body is None and used != "raw":
        used, body = ("delta", _delta_form(s)) if len(s) <= MAX_TUPLES else ("raw", None)
    body = _raw_body(s) if used == "raw" else {"word": _word_out(s.word), **body}
    return to_canonical_bytes({"type": "marginal-set", "encoding": used, **body})


def _marginal_set_payload(obj) -> MarginalSet:
    word = _word_in(obj.get("word"))
    encoding = obj.get("encoding")
    kind = word.kind
    if encoding == "raw":
        raw = obj.get("tuples")
        if not _is_list_of_lists(raw):
            raise WireFormatError("raw set needs a tuples array of arrays")
        tuples = [tuple(_rows_in(kind, rows) for rows in t) for t in raw]
    elif encoding == "interval":
        box = obj.get("box")
        n = word.dim
        if not _is_list_of_lists(box, n):
            raise WireFormatError(f"interval set needs a {n}x{n} box")
        cells = [[[c, c] if type(c) is int else c for c in row] for row in box]
        volume = 1
        for row in cells:
            for cell in row:
                if not (isinstance(cell, list) and len(cell) == 2 and all(type(x) is int for x in cell)):
                    raise WireFormatError(f"bad interval cell {cell!r}")
                # clamped, so a huge cell costs one multiplication
                volume = min(volume * max(0, cell[1] - cell[0] + 1), MAX_BOX_TUPLES + 1)
        if volume > MAX_BOX_TUPLES:
            raise WireFormatError(f"interval box holds more than {MAX_BOX_TUPLES} tuples")
        if word.arity != 1:
            raise WireFormatError("a tuple does not fit the word's arity and dimension")
        return box_marginal_set(word, cells)
    elif encoding == "delta":
        diffs = obj.get("diffs")
        if not _is_list_of_lists(diffs):
            raise WireFormatError("delta set needs a diffs array of arrays")
        if len(diffs) >= MAX_TUPLES:
            raise WireFormatError(f"delta set holds more than {MAX_TUPLES} tuples")
        base = _rows_in(kind, obj.get("base"))
        mats = [base]
        for changes in diffs:
            rows = [list(r) for r in mats[-1].rows]
            for change in changes:
                try:
                    (i, j), tok = change
                except (TypeError, ValueError) as e:
                    raise WireFormatError(f"bad delta cell {change!r}") from e
                if not all(type(x) is int and 1 <= x <= base.dim for x in (i, j)):
                    raise WireFormatError(f"delta position {(i, j)!r} out of range")
                rows[i - 1][j - 1] = token_to_scalar(tok)
            mats.append(Matrix(kind, tuple(tuple(r) for r in rows)))
        tuples = [(m,) for m in mats]
    else:
        raise WireFormatError(f"unknown encoding {encoding!r}")
    for t in tuples:
        if len(t) != word.arity or any(m.dim != word.dim for m in t):
            raise WireFormatError("a tuple does not fit the word's arity and dimension")
    return MarginalSet(word, tuple(tuples))


def decode_marginal_set(data: bytes) -> MarginalSet:
    obj = from_canonical_bytes(data)
    _expect_type(obj, "marginal-set")
    return _marginal_set_payload(obj)


# --------------------------------------------------------------------------
# Family specs


def _field_plan(cls) -> tuple:
    """(name, declared type) of each field of a spec class, in order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


# Wire tag -> (spec class, field plan).  kind and dim are the params' own
# and are not written; matrices go as rows, every other field as a scalar
# token.  The spec's constructor checks what is read back.
_FAMILIES = {cls.tag: (cls, _field_plan(cls)) for cls in get_args(FamilySpec)}
_CONTEXT = ("kind", "dim")


def _family_out(spec: FamilySpec):
    cls, plan = _FAMILIES.get(getattr(spec, "tag", None), (None, ()))
    if type(spec) is not cls:
        raise WireFormatError(f"unknown family spec {spec!r}")
    out = {"family": cls.tag}
    for name, hint in plan:
        if name not in _CONTEXT:
            value = getattr(spec, name)
            out[name] = _rows_out(value) if hint is Matrix else scalar_to_token(value)
    return out


def _family_in(obj, kind: SemiringKind, dim: int) -> FamilySpec:
    if not isinstance(obj, dict):
        raise WireFormatError("family spec must be an object")
    tag = obj.get("family")
    cls, plan = _FAMILIES.get(tag, (None, ())) if isinstance(tag, str) else (None, ())
    if cls is None:
        raise WireFormatError(f"unknown family {tag!r}")
    context = dict(zip(_CONTEXT, (kind, dim)))
    fields = {}
    for name, hint in plan:
        value = obj.get(name)
        if name in context:
            value = context[name]
        elif hint is Matrix:
            value = _rows_in(kind, value)
        elif hint is not int:
            value = token_to_scalar(value)
        fields[name] = value
    try:
        return cls(**fields)
    except (TypeError, ValueError) as e:
        raise WireFormatError(f"bad {tag} family spec: {e}") from e


# --------------------------------------------------------------------------
# Params


def _params_body(p: ProtocolParams):
    return {
        "kind": str(p.kind),
        "dim": p.dim,
        "publics": [_rows_out(w) for w in p.publics],
        "left": [_family_out(f) for f in p.left_families],
        "right": [_family_out(f) for f in p.right_families],
        "n_tuples": p.n_tuples,
        "l": p.l,
        "l1": p.l1,
        "l2": p.l2,
        "seed": p.seed,
    }


def encode_params(p: ProtocolParams) -> bytes:
    """Scripted replays never serialize; only the public agreement does."""
    if p.script is not None:
        raise WireFormatError("params carrying a scripted replay are not serializable")
    return to_canonical_bytes({"type": "params", **_params_body(p)})


def _params_in(obj) -> ProtocolParams:
    if not isinstance(obj, dict):
        raise WireFormatError("params must be an object")
    kind = _kind_in(obj.get("kind"))
    dim = obj.get("dim")
    try:
        return ProtocolParams(
            kind=kind,
            dim=dim,
            publics=tuple(_rows_in(kind, rows) for rows in obj.get("publics", [])),
            left_families=tuple(
                _family_in(f, kind, dim) for f in obj.get("left", [])
            ),
            right_families=tuple(
                _family_in(f, kind, dim) for f in obj.get("right", [])
            ),
            n_tuples=obj.get("n_tuples"),
            l=obj.get("l"),
            l1=obj.get("l1"),
            l2=obj.get("l2"),
            seed=obj.get("seed"),
        )
    except (TypeError, ValueError) as e:
        raise WireFormatError(str(e)) from e


def decode_params(data: bytes) -> ProtocolParams:
    obj = from_canonical_bytes(data)
    _expect_type(obj, "params")
    return _params_in(obj)


# --------------------------------------------------------------------------
# Transcripts


def _payload_out(payload):
    if isinstance(payload, Matrix):
        return {"kind": "matrix", "rows": _rows_out(payload)}
    if isinstance(payload, MarginalSet):
        return {"kind": "marginal-set", **_raw_body(payload)}
    return {"kind": "matrix-tuple", "items": [_rows_out(m) for m in payload]}


def _payload_in(obj, kind: SemiringKind):
    if not isinstance(obj, dict):
        raise WireFormatError("payload must be an object")
    what = obj.get("kind")
    if what == "matrix":
        return _rows_in(kind, obj.get("rows"))
    if what == "marginal-set":
        return _marginal_set_payload(
            {"word": obj.get("word"), "encoding": "raw", "tuples": obj.get("tuples")}
        )
    if what == "matrix-tuple":
        items = obj.get("items", [])
        if not isinstance(items, list):
            raise WireFormatError("matrix-tuple items must be an array")
        return tuple(_rows_in(kind, rows) for rows in items)
    raise WireFormatError(f"unknown payload kind {what!r}")


def encode_transcript(t: ProtocolTranscript) -> bytes:
    return to_canonical_bytes(
        {
            "type": "transcript",
            "protocol": t.protocol,
            "seed": t.seed,
            "params": _params_body(t.public_params()),
            "messages": [
                {
                    "sender": m.sender,
                    "label": m.label,
                    "payload": _payload_out(m.payload),
                }
                for m in t.messages
            ],
            "keys": {"alice": _rows_out(t.key_a), "bob": _rows_out(t.key_b)},
            "annotations": list(t.annotations),
        }
    )


def decode_transcript(data: bytes) -> ProtocolTranscript:
    """Checks the JSON shape; Message and ProtocolTranscript check the fields."""
    obj = from_canonical_bytes(data)
    _expect_type(obj, "transcript")
    params = _params_in(obj.get("params", {}))
    records = obj.get("messages", [])
    if not isinstance(records, list) or not all(isinstance(m, dict) for m in records):
        raise WireFormatError("transcript messages must be an array of objects")
    keys = obj.get("keys")
    if not isinstance(keys, dict):
        raise WireFormatError("transcript needs a keys object")
    annotations = obj.get("annotations", [])
    if not isinstance(annotations, list):
        raise WireFormatError("annotations must be an array")
    # decoded before the try: a set that fails verification raises
    # MarginalVerificationError, a ValueError that is not a format error
    payloads = [_payload_in(m.get("payload"), params.kind) for m in records]
    key_a, key_b = (_rows_in(params.kind, keys.get(party)) for party in ("alice", "bob"))
    try:
        return ProtocolTranscript(
            protocol=obj.get("protocol"),
            params=params,
            seed=obj.get("seed"),
            messages=tuple(
                Message(m.get("sender"), m.get("label"), payload)
                for m, payload in zip(records, payloads)
            ),
            key_a=key_a,
            key_b=key_b,
            annotations=tuple(annotations),
        )
    except (TypeError, ValueError) as e:
        raise WireFormatError(str(e)) from e


# --------------------------------------------------------------------------
# Attack reports


def _check_report(report: dict) -> None:
    """The report fields both codecs require as they are: a known protocol,
    a degree in 0..MAX_POLY_DEGREE, a boolean decomposed and a boolean or
    null match (present)."""
    protocol = report.get("protocol")
    if not isinstance(protocol, str) or protocol not in _EXCHANGES:
        raise WireFormatError(f"unknown protocol {protocol!r}")
    degree = report.get("degree")
    if type(degree) is not int or not 0 <= degree <= MAX_POLY_DEGREE:
        raise WireFormatError(f"report degree must be an int within 0..{MAX_POLY_DEGREE}")
    if type(report.get("decomposed")) is not bool:
        raise WireFormatError("report decomposed must be a boolean")
    if "match" not in report or not (report["match"] is None or type(report["match"]) is bool):
        raise WireFormatError("report match must be a boolean or null")


def encode_report(report: dict) -> bytes:
    """report fields: protocol, degree, decomposed, match, z (scalar rows or
    null), candidate (rows or null), expected (rows or null), kind.  Fields
    that decode_report would refuse raise WireFormatError instead."""
    _check_report(report)
    kind = _kind_in(str(report.get("kind")))
    mats = {}
    for name in ("candidate", "expected"):
        m = report.get(name)
        if m is not None and not (isinstance(m, Matrix) and m.kind is kind):
            raise WireFormatError(f"report {name} must be a {kind} matrix or null")
        mats[name] = None if m is None else _rows_out(m)
    z = report.get("z")
    try:
        z = None if z is None else [[scalar_to_token(x) for x in row] for row in z]
    except TypeError as e:
        raise WireFormatError("report z must be rows of scalars or null") from e
    out = {
        "type": "report",
        "protocol": report["protocol"],
        "degree": report["degree"],
        "kind": str(kind),
        "decomposed": report["decomposed"],
        "match": report["match"],
        "z": z,
        **mats,
    }
    return to_canonical_bytes(out)


def decode_report(data: bytes) -> dict:
    """The report's fields as encode_report takes them, plus "type"; every
    field encode_report writes must be present and well formed."""
    obj = from_canonical_bytes(data)
    _expect_type(obj, "report")
    kind = _kind_in(obj.get("kind"))
    _check_report(obj)
    if not {"z", "candidate", "expected"} <= obj.keys():
        raise WireFormatError("report needs z, candidate and expected (rows or null)")
    out = dict(obj)
    out["kind"] = kind
    if obj["z"] is not None:
        if not _is_list_of_lists(obj["z"]):
            raise WireFormatError("report z must be an array of arrays")
        out["z"] = tuple(
            tuple(token_to_scalar(x) for x in row) for row in obj["z"]
        )
    if obj["candidate"] is not None:
        out["candidate"] = _rows_in(kind, obj["candidate"])
    if obj["expected"] is not None:
        out["expected"] = _rows_in(kind, obj["expected"])
    return out
