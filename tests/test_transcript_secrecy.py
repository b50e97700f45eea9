"""A transcript must not publish the secrets its marginal sets hide.

Every set payload carries its word, and a word's constants are its sender's
secrets: the one-sided sets M1 and N1 hold p₁ and q₁, the sandwich set M1
holds (p₁, W, q₁), and the multiblock sets hold p₁, each seam qᵢ⊗pᵢ₊₁ and
qₙ.  So an eavesdropper reads Alice's key off the transcript bytes alone:
p₁⊗v⊗q₁, or p₁⊗v₁⊗(q₁⊗p₂)⊗v₂⊗…⊗vₙ⊗qₙ for n blocks.

The cases are strict xfails: they pass (the key is recovered) on every run
today, and the fix, a set payload that carries its word's shape without
the constants, flips them.  See ROADMAP, "Transcripts publish the secrets
the sets hide".
"""

from __future__ import annotations

import random

import pytest

import tropmarg.fixtures as fx
from tropmarg.families import PolyFamily
from tropmarg.matrix import make_matrix, mat_prod
from tropmarg.protocols import (
    ProtocolParams,
    run_protocol_multiblock,
    run_protocol_one_sided,
    run_protocol_sandwich,
)
from tropmarg.semiring import SemiringKind
from tropmarg.wire import (
    encode_transcript,
    from_canonical_bytes,
    to_canonical_bytes,
    token_to_scalar,
)

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS

RUNNERS = {
    "one-sided": (run_protocol_one_sided, "one-sided-3x3", 1),
    "sandwich": (run_protocol_sandwich, "sandwich4x4", 1),
    "multiblock": (run_protocol_multiblock, "two-block-3x3", 2),
}


def recover_key(data: bytes):
    """Alice's key from a transcript's bytes: the first constant of her
    first set, then each of her messages vᵢ… followed by the last constant
    of her set after it, or None when a set payload has no word constants."""
    obj = from_canonical_bytes(data)
    kind = SemiringKind(obj["params"]["kind"])

    def matrix(rows):
        return make_matrix(kind, [[token_to_scalar(x) for x in row] for row in rows])

    sets = [
        m["payload"]["word"].get("constants")
        for m in obj["messages"]
        if m["sender"] == "alice" and m["payload"]["kind"] == "marginal-set"
    ]
    if not sets or not all(sets):
        return None
    v = next(m["payload"] for m in obj["messages"] if m["label"] == "v")
    vs = [v["rows"]] if v["kind"] == "matrix" else v["items"]
    # one set (sandwich): v sits between its first and last constant
    factors = [matrix(sets[0][0])]
    for v_rows, constants in zip(vs, sets[1:] or sets):
        factors += [matrix(v_rows), matrix(constants[-1])]
    return mat_prod(kind, obj["params"]["dim"], factors)


def _drawn_params(kind: SemiringKind, blocks: int, seed: int) -> ProtocolParams:
    rng = random.Random(seed)

    def square():
        return make_matrix(kind, [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])

    return ProtocolParams(
        kind=kind,
        dim=3,
        publics=tuple(square() for _ in range(blocks)),
        left_families=tuple(PolyFamily(square(), 2, -9, 9) for _ in range(blocks)),
        right_families=tuple(PolyFamily(square(), 2, -9, 9) for _ in range(blocks)),
        n_tuples=3,
        l=40 if kind is MIN else -40,
        l1=-8,
        l2=8,
        seed=seed,
    )


def _transcript(protocol: str, source: str):
    run, builtin, blocks = RUNNERS[protocol]
    if source == "builtin":
        params = fx.builtin_params(builtin)
    else:
        params = _drawn_params(MIN if source == "drawn-min-plus" else MAX, blocks, 11)
    return run(params, random.Random(params.seed))


def test_recover_key_needs_word_constants():
    data = from_canonical_bytes(encode_transcript(_transcript("sandwich", "builtin")))
    for m in data["messages"]:
        if m["payload"]["kind"] == "marginal-set":
            m["payload"]["word"]["constants"] = []
    assert recover_key(to_canonical_bytes(data)) is None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="set payloads carry their words' constants, the sender's secrets "
    "(ROADMAP: Transcripts publish the secrets the sets hide)",
)
@pytest.mark.parametrize("source", ["builtin", "drawn-min-plus", "drawn-max-plus"])
@pytest.mark.parametrize("protocol", sorted(RUNNERS))
def test_transcript_bytes_do_not_give_the_key(protocol, source):
    t = _transcript(protocol, source)
    assert recover_key(encode_transcript(t)) != t.key_a
