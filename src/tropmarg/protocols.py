"""Two-party key-agreement runs over commuting tropical matrix families.

Four exchanges are implemented: the classic commuting-conjugation baseline
(both parties publish p⊗W⊗q), and three variants that wrap the published
value in tuples drawn from marginal sets so that the factors an eavesdropper
would need to re-order are no longer exposed.  All four run through one
skeleton (_run) and differ only in one row of data each (_EXCHANGES).  A
decomposition attack against the baseline is included; it recovers the key
whenever the secrets lie in the span of a public basis.

All runs are deterministic functions of (params, rng) and produce a
transcript whose public section never contains party secrets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from operator import add, sub
from typing import Callable, Optional, Sequence

from .families import FamilySpec, _require_ints, commute_check, sample_family_member
from .marginal import (
    RETRY_BUDGET,
    MarginalSet,
    SamplerExhausted,
    five_factor_word,
    left_word,
    make_marginal_set,
    right_word,
    sample_five_factor_marginal,
    sample_left_marginal,
    sample_right_marginal,
    sample_sandwich_marginal,
    sandwich_word,
)
from .matrix import Matrix, identity, mat_add, mat_mul, mat_prod, powers
from .semiring import SelfCheckError, SemiringKind, _norm, add_neutral


# --------------------------------------------------------------------------
# Parameters, scripted replays, transcripts


@dataclass(frozen=True)
class ProtocolScript:
    """A recorded run to replay: each party's secrets per block, the bodies of
    the sets it publishes (publication order) and its indices into the other
    party's sets (pick order).  Single-block exchanges hold 1-tuples of
    secrets; the baseline's sets and choices are empty."""

    alice_p: tuple
    alice_q: tuple
    bob_p: tuple
    bob_q: tuple
    alice_sets: tuple
    bob_sets: tuple
    alice_choices: tuple
    bob_choices: tuple

    @property
    def blocks(self) -> int:
        return len(self.alice_p)


@dataclass(frozen=True)
class ProtocolParams:
    """Public agreement for one run.

    publics holds W (or W₁..Wₙ for the block protocol); left_families and
    right_families hold one commuting-family spec per block (H_i, R_i).
    n_tuples, l, l1, l2 parameterize the marginal samplers.  seed is the
    default stream; a scripted replay, when present, supplies the secrets,
    published sets and tuple choices verbatim and is never serialized.
    dim, n_tuples, l, l1, l2 and seed take builtin ints only (TypeError
    otherwise), so every params that builds decodes back from its bytes.
    """

    kind: SemiringKind
    dim: int
    publics: tuple[Matrix, ...]
    left_families: tuple[FamilySpec, ...]
    right_families: tuple[FamilySpec, ...]
    n_tuples: int = 3
    l: int = 150
    l1: int = -20
    l2: int = 20
    seed: int = 0
    script: Optional[ProtocolScript] = None

    def __post_init__(self):
        _require_ints(self, "dim", "n_tuples", "l", "l1", "l2", "seed")
        if not self.publics:
            raise ValueError("need at least one public matrix")
        for w in self.publics:
            if w.kind is not self.kind or w.dim != self.dim:
                raise ValueError("public matrix does not match params kind/dim")
        if len(self.left_families) != len(self.publics) or len(
            self.right_families
        ) != len(self.publics):
            raise ValueError("need one family pair per public matrix")
        for spec in (*self.left_families, *self.right_families):
            if spec.kind is not self.kind or spec.dim != self.dim:
                raise ValueError("family spec does not match params kind/dim")
        if self.n_tuples < 1:
            raise ValueError("marginal sets need at least one tuple")

    @property
    def blocks(self) -> int:
        return len(self.publics)


@dataclass(frozen=True)
class Message:
    sender: str  # "alice" | "bob"
    label: str
    payload: object  # Matrix | MarginalSet | tuple[Matrix, ...]


@dataclass(frozen=True)
class ProtocolTranscript:
    protocol: str
    params: ProtocolParams
    seed: int
    messages: tuple[Message, ...]
    key_a: Matrix
    key_b: Matrix
    annotations: tuple[str, ...]

    @property
    def agreed(self) -> bool:
        return self.key_a == self.key_b

    def message(self, label: str):
        for m in self.messages:
            if m.label == label:
                return m.payload
        raise KeyError(label)

    def public_params(self) -> ProtocolParams:
        """The params as they may be serialized: scripted secrets stripped."""
        return replace(self.params, script=None)


def _require_commuting(kind: str, a: Matrix, b: Matrix) -> None:
    if not commute_check(a, b):
        raise ValueError(f"{kind} secrets do not commute; family spec is broken")


def sample_finite_member(spec: FamilySpec, rng: random.Random) -> Matrix:
    """Family member with no infinite entries.

    Only secrets that anchor a marginal set need this (residuation requires
    finite sources); a polynomial family yields an infinite matrix exactly on
    its degree-0 draws, so rejection terminates fast."""
    for _ in range(RETRY_BUDGET):
        m = sample_family_member(spec, rng)
        if m.is_finite():
            return m
    raise SamplerExhausted("family produced no finite member within the budget")


# --------------------------------------------------------------------------
# The exchanges: one skeleton, one row of data each


def _chain_sets(params: ProtocolParams, ps: Sequence[Matrix], qs: Sequence[Matrix]):
    """Right set for p₁, sandwich sets for each seam qᵢ₋₁⊗pᵢ, left set for
    qₙ: the picks from them flatten to c₁, d₁, c₂, …, dₙ."""
    seams = [mat_mul(q, p) for q, p in zip(qs, ps[1:])]
    return [
        (sample_right_marginal, right_word, (ps[0],), (params.l,)),
        *(
            (sample_sandwich_marginal, sandwich_word, (a,), (params.l1, params.l2))
            for a in seams
        ),
        (sample_left_marginal, left_word, (qs[-1],), (params.l,)),
    ]


def _five_factor_sets(params: ProtocolParams, ps: Sequence[Matrix], qs: Sequence[Matrix]):
    """One set of pairs (c, d) marginal for p⊗□⊗W⊗□⊗q."""
    anchors = (ps[0], params.publics[0], qs[0])
    return [(sample_five_factor_marginal, five_factor_word, anchors, (params.l1, params.l2))]


@dataclass(frozen=True)
class _Exchange:
    """What sets one exchange apart; _run does the rest.

    sets maps (params, ps, qs) to a party's set list, each entry (sampler,
    word, anchors, caps); the sets serve the other party's masks.  layout
    lists the factors of one published block, c and d being the masks.
    """

    single: Optional[str]  # name in the one-block error; None allows n blocks
    sets: Optional[Callable]  # None: no sets, no masks, any family member
    layout: str
    labels: Callable[[str, int], list]  # (party digit, set count) -> labels
    note: str  # set annotation; formatted with n, count and sizes
    secrets_first: bool = False  # both parties' secrets before any set


_EXCHANGES = {
    "sidelnikov": _Exchange("baseline", None, "pWq", lambda d, k: [], ""),
    "one-sided": _Exchange(
        "one-sided", _chain_sets, "cpWqd",
        lambda d, k: [f"M{d}", f"N{d}"], "marginal sets hold {sizes} tuples",
    ),
    "sandwich": _Exchange(
        "sandwich", _five_factor_sets, "pcWdq",
        lambda d, k: [f"M{d}"], "marginal sets hold {sizes} pairs",
    ),
    "multiblock": _Exchange(
        None, _chain_sets, "cpWqd",
        lambda d, k: [f"M{d}{j}" for j in range(1, k + 1)],
        "{n} block(s), {count} marginal sets", secrets_first=True,
    ),
}


def _run(exchange: str, params: ProtocolParams, rng: random.Random) -> ProtocolTranscript:
    """Draw or replay secrets, publish sets, pick masks from the other
    party's sets, form u and v, derive and compare the keys."""
    ex = _EXCHANGES[exchange]
    n, kind, dim, script = params.blocks, params.kind, params.dim, params.script
    if ex.single and n != 1:
        raise ValueError(f"{ex.single} exchange uses a single public matrix")
    if script is not None and script.blocks != n:
        raise ValueError("script block count does not match params")
    # per party: (ps, qs, set bodies, choices) to replay, or None to draw
    replays = (None, None) if script is None else (
        (script.alice_p, script.alice_q, script.alice_sets, script.alice_choices),
        (script.bob_p, script.bob_q, script.bob_sets, script.bob_choices),
    )
    member = sample_finite_member if ex.sets else sample_family_member

    def secrets(replay):
        if replay is not None:
            return replay[0], replay[1]
        drawn = [
            (member(left, rng), member(right, rng))
            for left, right in zip(params.left_families, params.right_families)
        ]
        return [p for p, _ in drawn], [q for _, q in drawn]

    def publish(own, replay) -> list[MarginalSet]:
        specs = ex.sets(params, *own) if ex.sets else []
        if replay is None:
            return [f(*anchors, params.n_tuples, *caps, rng) for f, _, anchors, caps in specs]
        return [
            make_marginal_set(word(*anchors), body)
            for (_, word, anchors, _), body in zip(specs, replay[2], strict=True)
        ]

    def masked(ps, qs, their_sets, replay) -> tuple[Matrix, ...]:
        masks = []
        for j, s in enumerate(their_sets):
            masks += s.tuples[rng.randrange(len(s)) if replay is None else replay[3][j]]
        masks = masks or [None] * (2 * n)
        blocks = []
        for p, w, q, c, d in zip(ps, params.publics, qs, masks[0::2], masks[1::2]):
            factor = {"c": c, "p": p, "W": w, "q": q, "d": d}
            blocks.append(mat_prod(kind, dim, [factor[x] for x in ex.layout]))
        return tuple(blocks)

    if ex.secrets_first:
        own = [secrets(r) for r in replays]
        sets = [publish(o, r) for o, r in zip(own, replays)]
    else:
        own, sets = [], []
        for r in replays:
            own.append(secrets(r))
            sets.append(publish(own[-1], r))
    (ap, aq), (bp, bq) = own
    for i in range(n):
        where = "" if ex.single else f" block {i + 1}"
        _require_commuting(f"left{where}", ap[i], bp[i])
        _require_commuting(f"right{where}", aq[i], bq[i])

    u = masked(ap, aq, sets[1], replays[0])
    v = masked(bp, bq, sets[0], replays[1])
    key_a = mat_prod(kind, dim, [x for i in range(n) for x in (ap[i], v[i], aq[i])])
    key_b = mat_prod(kind, dim, [x for i in range(n) for x in (bp[i], u[i], bq[i])])
    if key_a != key_b:
        raise SelfCheckError("the two derived keys differ")
    messages = [
        Message(party, label, s)
        for party, digit, own_sets in (("alice", "1", sets[0]), ("bob", "2", sets[1]))
        for label, s in zip(ex.labels(digit, len(own_sets)), own_sets)
    ]
    if ex.single:
        u, v = u[0], v[0]
    messages += [Message("alice", "u", u), Message("bob", "v", v)]
    published = sets[0] + sets[1]
    note = ex.note.format(
        n=n, count=len(published), sizes="/".join(str(len(s)) for s in published)
    )
    return ProtocolTranscript(
        protocol=exchange,
        params=params,
        seed=params.seed,
        messages=tuple(messages),
        key_a=key_a,
        key_b=key_b,
        annotations=(note, "keys agree") if note else ("keys agree",),
    )


def run_sidelnikov(params: ProtocolParams, rng: random.Random) -> ProtocolTranscript:
    """Both parties publish p⊗W⊗q; the shared key is p₁⊗p₂⊗W⊗q₂⊗q₁."""
    return _run("sidelnikov", params, rng)


def run_protocol_one_sided(params: ProtocolParams, rng: random.Random) -> ProtocolTranscript:
    """Published values are masked by tuples from right/left marginal sets of
    the secrets: u = c₂⊗p₁⊗W⊗q₁⊗d₂ with p₁⊗c = p₁ for all c in M₁, etc."""
    return _run("one-sided", params, rng)


def run_protocol_sandwich(params: ProtocolParams, rng: random.Random) -> ProtocolTranscript:
    """Each party publishes one set of pairs marginal for p·□·W·□·q and masks
    its message as u = p₁⊗c₂⊗W⊗d₂⊗q₁."""
    return _run("sandwich", params, rng)


def run_protocol_multiblock(params: ProtocolParams, rng: random.Random) -> ProtocolTranscript:
    """n public matrices, n commuting family pairs; each block i carries
    cᵢ⊗pᵢ⊗Wᵢ⊗qᵢ⊗dᵢ and the key is the ordered product of the unmasked
    blocks.  n=2 is the worked two-block example, six sets in all."""
    return _run("multiblock", params, rng)


# --------------------------------------------------------------------------
# Decomposition attack on the baseline


class NoDecomposition(RuntimeError):
    """The published value is not a combination of the basis conjugates; the
    greatest-subsolution certificate is attached."""

    def __init__(self, z_table):
        super().__init__("published value does not decompose over the basis")
        self.z_table = z_table


def power_basis(a: Matrix, degree: int) -> list[Matrix]:
    """[I, A, A^⊗2, ..., A^⊗degree], each power one product from the last."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return [identity(a.kind, a.dim), *powers(a, degree)]


def attack_decomposition(
    w: Matrix,
    u: Matrix,
    v: Matrix,
    left_basis: Sequence[Matrix],
    right_basis: Sequence[Matrix],
) -> tuple[Matrix, tuple]:
    """Try to rewrite u as ⊕_ij z_ij ⊗ (aᵢ⊗W⊗bⱼ) over the given bases.

    The candidate z is the greatest (min-plus; least for max-plus) matrix of
    coefficients keeping every term above u; if even that fails to reproduce
    u exactly there is no decomposition and NoDecomposition is raised.  On
    success the key candidate ⊕_ij z_ij ⊗ aᵢ⊗V⊗bⱼ equals the parties' key
    whenever the basis elements commute with the secrets they stand in for.
    """
    kind, dim = w.kind, w.dim
    if not left_basis or not right_basis:
        raise ValueError("bases must be nonempty")
    for m in (w, u, v, *left_basis, *right_basis):
        if m.kind is not kind or m.dim != dim:
            raise ValueError("attack inputs must share kind and dimension")
    for m in (w, u, v):
        if not m.is_finite():
            raise ValueError("attack requires finite public values")
    e = identity(kind, dim)

    def times(x: Matrix, y: Matrix) -> Matrix:
        """x⊗y, without a product when either factor is the identity (power
        bases start with it)."""
        return y if x == e else x if y == e else mat_mul(x, y)

    conjugates = [
        [times(aw, b) for b in right_basis] for aw in (times(a, w) for a in left_basis)
    ]
    # basis elements themselves may hold infinities (the identity does); only
    # their conjugates enter subtractions and those must be finite
    for row in conjugates:
        for t in row:
            if not t.is_finite():
                raise ValueError("a basis conjugate has infinite entries")

    # pick is the semiring sum, extreme its opposite; z_ij is the extreme
    # entry of u - t_ij, normalized once
    pick, extreme = (min, max) if kind is SemiringKind.MIN_PLUS else (max, min)
    z_table = tuple(
        tuple(
            _norm(extreme(extreme(map(sub, ur, tr)) for ur, tr in zip(u.rows, t.rows)))
            for t in row
        )
        for row in conjugates
    )
    # ⊕ z_ij ⊗ t_ij, entry by entry in one pass; every term is finite
    zs = [z for row in z_table for z in row]
    ts = [t.rows for row in conjugates for t in row]
    for u_row, *t_rows in zip(u.rows, *ts):
        for x, *entries in zip(u_row, *t_rows):
            if pick(map(add, zs, entries)) != x:
                raise NoDecomposition(z_table)
    # ⊕_ij z_ij ⊗ aᵢ⊗V⊗bⱼ = ⊕ᵢ (aᵢ⊗V) ⊗ wᵢ with the weights wᵢ = ⊕ⱼ z_ij ⊗ bⱼ
    o = add_neutral(kind)
    candidate = None
    for a, z_row in zip(left_basis, z_table):
        weight = tuple(
            tuple(
                _norm(pick([z + y for z, y in zip(z_row, entries) if y is not o], default=o))
                for entries in zip(*b_rows)
            )
            for b_rows in zip(*(b.rows for b in right_basis))
        )
        term = mat_mul(times(a, v), Matrix(kind, weight))
        candidate = term if candidate is None else mat_add(candidate, term)
    return candidate, z_table
