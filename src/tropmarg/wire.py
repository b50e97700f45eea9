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
import itertools
import json
import os
import tempfile
from fractions import Fraction
from typing import Sequence, get_args, get_type_hints

from .families import FamilySpec
from .marginal import (
    Box,
    Circle,
    Const,
    MarginalSet,
    WordTemplate,
    _verified_set,
    verify_marginal,
)
from .matrix import Matrix
from .protocols import _EXCHANGES, Message, ProtocolParams, ProtocolTranscript
from .semiring import (
    NEG_INF,
    POS_INF,
    Scalar,
    SemiringKind,
    as_scalar,
)


class WireFormatError(ValueError):
    """Malformed bytes or an object that cannot be represented."""


class MarginalVerificationError(ValueError):
    """Decoded set contains tuples that fail verification."""

    def __init__(self, indices: Sequence[int]):
        super().__init__(f"tuples at indices {list(indices)} do not verify")
        self.indices = tuple(indices)


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
        return f"{x.numerator}/{x.denominator}"
    raise WireFormatError(f"not a serializable scalar: {x!r}")


def _is_int(value) -> bool:
    """The one integer check for decoded fields: JSON true/false are Python
    bools, which isinstance(_, int) would let through."""
    return type(value) is int


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
        num, sep, den = tok.partition("/")
        try:
            if sep:
                return as_scalar(Fraction(int(num), int(den)))
            return int(num)
        except (ValueError, ZeroDivisionError) as e:
            raise WireFormatError(f"bad scalar token {tok!r}") from e
    raise WireFormatError(f"bad scalar token {tok!r}")


def _reject_float(s: str):
    raise WireFormatError(f"float literal {s!r} on the wire")


def to_canonical_bytes(obj) -> bytes:
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        + "\n"
    ).encode("utf-8")


def from_canonical_bytes(data: bytes):
    try:
        return json.loads(data.decode("utf-8"), parse_float=_reject_float)
    except WireFormatError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
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


_ATOM_TAGS = {"const": Const, "box": Box, "circle": Circle}


def _word_out(w: WordTemplate):
    def atom(a):
        if isinstance(a, Const):
            return ["const", a.index]
        if isinstance(a, Box):
            return ["box", a.slot]
        return ["circle", a.slot]

    return {
        "kind": str(w.kind),
        "dim": w.dim,
        "constants": [_rows_out(c) for c in w.constants],
        "summands": [[atom(a) for a in s] for s in w.summands],
    }


def _word_in(obj) -> WordTemplate:
    if not isinstance(obj, dict):
        raise WireFormatError("word must be an object")
    kind = _kind_in(obj.get("kind"))
    dim = obj.get("dim")
    if not _is_int(dim):
        raise WireFormatError("word dim must be an integer")
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
                or not _is_int(pair[1])
            ):
                raise WireFormatError(f"bad word atom {pair!r}")
            atoms.append(_ATOM_TAGS[pair[0]](pair[1]))
        summands.append(tuple(atoms))
    try:
        return WordTemplate(kind, dim, constants, tuple(summands))
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
# and the encoder writes such a set in delta form instead.  A few hundred
# bytes of box could otherwise stand for billions of tuples.
MAX_BOX_TUPLES = 4096

# Largest polynomial degree and tuple count a params file may ask for.  A
# few bytes can name any number, and the work grows with both: drawing a
# family member of degree D costs D matrix products, and a run draws
# n_tuples tuples per published set.  The CLI defaults, the builtin fixtures
# and the benchmark use at most degree 3 and 3 tuples.  The encoder refuses
# what the decoder would reject, so no params file is written that cannot
# be read back.
MAX_POLY_DEGREE = 64
MAX_TUPLES = 256


def _box_form(s: MarginalSet):
    """Interval body if the set is exactly an integer box, else None.  Cell
    form: a bare value for a constant entry, [lo, hi] for a full contiguous
    range."""
    n = s.word.dim
    per_cell = [[set() for _ in range(n)] for _ in range(n)]
    for (m,) in s.tuples:
        if not m.all_int:
            return None
        for i in range(n):
            for j in range(n):
                per_cell[i][j].add(m.rows[i][j])
    total = 1
    for i in range(n):
        for j in range(n):
            vals = per_cell[i][j]
            if max(vals) - min(vals) + 1 != len(vals):
                return None  # gaps: not a contiguous range
            total *= len(vals)
    if total != len(s.tuples) or total > MAX_BOX_TUPLES:
        return None
    return {
        "box": [
            [
                min(c) if len(c) == 1 else [min(c), max(c)]
                for c in (per_cell[i][j] for j in range(n))
            ]
            for i in range(n)
        ]
    }


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


def encode_marginal_set(s: MarginalSet, encoding: str = "raw") -> bytes:
    """Serialize with the requested encoding, falling back silently down the
    ladder interval, delta, raw: interval and delta need a non-empty set of
    single matrices, interval also an exact integer box; raw always applies."""
    if encoding not in ("raw", "interval", "delta"):
        raise WireFormatError(f"unknown encoding {encoding!r}")
    used = encoding if s.word.arity == 1 and s.tuples else "raw"
    body = _box_form(s) if used == "interval" else None
    if body is None and used != "raw":
        used, body = "delta", _delta_form(s)
    if used == "raw":
        body = {"tuples": [[_rows_out(m) for m in t] for t in s.tuples]}
    return to_canonical_bytes(
        {"type": "marginal-set", "encoding": used, "word": _word_out(s.word), **body}
    )


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
        cells = []
        for i in range(n):
            for j in range(n):
                cell = box[i][j]
                if _is_int(cell):
                    cells.append(range(cell, cell + 1))
                elif (
                    isinstance(cell, list)
                    and len(cell) == 2
                    and all(_is_int(x) for x in cell)
                ):
                    cells.append(range(cell[0], cell[1] + 1))
                else:
                    raise WireFormatError(f"bad interval cell {cell!r}")
        volume = 1
        for c in cells:
            # clamped, so a huge cell costs one multiplication
            volume = min(volume * max(0, c.stop - c.start), MAX_BOX_TUPLES + 1)
        if volume > MAX_BOX_TUPLES:
            raise WireFormatError(f"interval box holds more than {MAX_BOX_TUPLES} tuples")
        tuples = []
        for combo in itertools.product(*cells):
            rows = tuple(tuple(combo[i * n + j] for j in range(n)) for i in range(n))
            tuples.append((Matrix(kind, rows),))
    elif encoding == "delta":
        base = _rows_in(kind, obj.get("base"))
        mats = [base]
        diffs = obj.get("diffs")
        if not _is_list_of_lists(diffs):
            raise WireFormatError("delta set needs a diffs array of arrays")
        for changes in diffs:
            rows = [list(r) for r in mats[-1].rows]
            for change in changes:
                try:
                    (i, j), tok = change
                except (TypeError, ValueError) as e:
                    raise WireFormatError(f"bad delta cell {change!r}") from e
                if not all(_is_int(x) and 1 <= x <= base.dim for x in (i, j)):
                    raise WireFormatError(f"delta position {(i, j)!r} out of range")
                rows[i - 1][j - 1] = token_to_scalar(tok)
            mats.append(Matrix(kind, tuple(tuple(r) for r in rows)))
        tuples = [(m,) for m in mats]
    else:
        raise WireFormatError(f"unknown encoding {encoding!r}")
    for t in tuples:
        if len(t) != word.arity or any(m.dim != word.dim for m in t):
            raise WireFormatError("a tuple does not fit the word's arity and dimension")
    # The word's value is monotone in every slot entry over both semirings,
    # infinite constants included, so when a box's lo and hi corners (its
    # first and last members) give the neutral value, every member does.
    corners = (tuples[0], tuples[-1]) if encoding == "interval" and tuples else ()
    if not (corners and all(verify_marginal(word, t) for t in corners)):
        bad = [k for k, t in enumerate(tuples) if not verify_marginal(word, t)]
        if bad:
            raise MarginalVerificationError(bad)
    return _verified_set(word, tuple(tuples))


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


def _within_caps(spec: FamilySpec) -> FamilySpec:
    if getattr(spec, "max_degree", 0) > MAX_POLY_DEGREE:
        raise WireFormatError(f"polynomial degree above {MAX_POLY_DEGREE}")
    return spec


def _family_out(spec: FamilySpec):
    cls, plan = _FAMILIES.get(getattr(spec, "tag", None), (None, ()))
    if type(spec) is not cls:
        raise WireFormatError(f"unknown family spec {spec!r}")
    _within_caps(spec)
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
        spec = cls(**fields)
    except (TypeError, ValueError) as e:
        raise WireFormatError(f"bad {tag} family spec: {e}") from e
    return _within_caps(spec)


# --------------------------------------------------------------------------
# Params


def _params_body(p: ProtocolParams):
    if p.n_tuples > MAX_TUPLES:
        raise WireFormatError(f"params n_tuples above {MAX_TUPLES}")
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
        params = ProtocolParams(
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
    if params.n_tuples > MAX_TUPLES:
        raise WireFormatError(f"params n_tuples above {MAX_TUPLES}")
    return params


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
        return {
            "kind": "marginal-set",
            "word": _word_out(payload.word),
            "tuples": [[_rows_out(m) for m in t] for t in payload.tuples],
        }
    if isinstance(payload, tuple):
        return {"kind": "matrix-tuple", "items": [_rows_out(m) for m in payload]}
    raise WireFormatError(f"unknown payload {payload!r}")


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
    obj = from_canonical_bytes(data)
    _expect_type(obj, "transcript")
    params = _params_in(obj.get("params", {}))
    protocol = obj.get("protocol")
    if not isinstance(protocol, str) or protocol not in _EXCHANGES:
        raise WireFormatError(f"unknown protocol {protocol!r}")
    seed = obj.get("seed")
    if not _is_int(seed):
        raise WireFormatError("transcript seed must be an integer")
    records = obj.get("messages", [])
    if not isinstance(records, list):
        raise WireFormatError("transcript messages must be an array")
    messages = []
    for m in records:
        if not isinstance(m, dict) or m.get("sender") not in ("alice", "bob"):
            raise WireFormatError("bad message record")
        label = m.get("label")
        if not isinstance(label, str):
            raise WireFormatError("bad message label")
        messages.append(
            Message(m["sender"], label, _payload_in(m.get("payload"), params.kind))
        )
    keys = obj.get("keys")
    if not isinstance(keys, dict):
        raise WireFormatError("transcript needs a keys object")
    annotations = obj.get("annotations", [])
    if not isinstance(annotations, list) or not all(
        isinstance(a, str) for a in annotations
    ):
        raise WireFormatError("annotations must be an array of strings")
    return ProtocolTranscript(
        protocol=protocol,
        params=params,
        seed=seed,
        messages=tuple(messages),
        key_a=_rows_in(params.kind, keys.get("alice")),
        key_b=_rows_in(params.kind, keys.get("bob")),
        annotations=tuple(annotations),
    )


# --------------------------------------------------------------------------
# Attack reports


def encode_report(report: dict) -> bytes:
    """report fields: protocol, degree, decomposed, match, z (scalar rows or
    null), candidate (rows or null), expected (rows or null), kind."""
    out = {
        "type": "report",
        "protocol": report["protocol"],
        "degree": report["degree"],
        "kind": str(report["kind"]),
        "decomposed": bool(report["decomposed"]),
        "match": report["match"],
        "z": None
        if report.get("z") is None
        else [[scalar_to_token(x) for x in row] for row in report["z"]],
        "candidate": None
        if report.get("candidate") is None
        else _rows_out(report["candidate"]),
        "expected": None
        if report.get("expected") is None
        else _rows_out(report["expected"]),
    }
    return to_canonical_bytes(out)


def decode_report(data: bytes) -> dict:
    obj = from_canonical_bytes(data)
    _expect_type(obj, "report")
    kind = _kind_in(obj.get("kind"))
    out = dict(obj)
    out["kind"] = kind
    if obj.get("z") is not None:
        if not _is_list_of_lists(obj["z"]):
            raise WireFormatError("report z must be an array of arrays")
        out["z"] = tuple(
            tuple(token_to_scalar(x) for x in row) for row in obj["z"]
        )
    if obj.get("candidate") is not None:
        out["candidate"] = _rows_in(kind, obj["candidate"])
    if obj.get("expected") is not None:
        out["expected"] = _rows_in(kind, obj["expected"])
    return out
