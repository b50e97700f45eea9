"""Two-party key-agreement runs over commuting tropical matrix families.

Four exchanges are implemented: the classic commuting-conjugation baseline
(both parties publish p⊗W⊗q), and three variants that wrap the published
value in tuples drawn from marginal sets so that the factors an eavesdropper
would need to re-order are no longer exposed.  All four run through one
skeleton (_run) and differ only in one row of data each (_EXCHANGES).  A
decomposition attack against the baseline is included; it recovers the key
whenever the secrets lie in the span of a public basis.

All runs are deterministic functions of (params, rng).  Their transcripts
do not yet hide the secrets: a set payload carries its word's constants
(ROADMAP, "Transcripts publish the secrets the sets hide").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from operator import add, sub
from typing import Callable, Optional, Sequence

from .families import FamilySpec, commute_check, sample_family_member
from .marginal import (
    RETRY_BUDGET,
    MarginalSet,
    SamplerExhausted,
    chain_word,
    left_word,
    make_marginal_set,
    right_word,
    sample_five_factor_marginal,
    sample_left_marginal,
    sample_right_marginal,
    sample_sandwich_marginal,
    sandwich_word,
)
from .matrix import Matrix, identity, linear_combination, mat_mul, mat_prod, powers
from .semiring import MUL_NEUTRAL, SelfCheckError, SemiringKind, add_neutral, as_scalar, require_int


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


# Largest n_tuples of a ProtocolParams: a few bytes of a params file can name
# any number, and a run draws n_tuples tuples per published set.  The CLI
# defaults, the builtin fixtures and the benchmark use at most 3.
MAX_TUPLES = 256


@dataclass(frozen=True)
class ProtocolParams:
    """Public agreement for one run.

    publics holds W (or W₁..Wₙ for the block protocol); left_families and
    right_families hold one commuting-family spec per block (H_i, R_i).
    n_tuples, l, l1, l2 parameterize the marginal samplers.  seed is the
    default stream; a scripted replay, when present, supplies the secrets,
    published sets and tuple choices verbatim and is never serialized.
    dim, n_tuples, l, l1, l2 and seed take builtin ints only (TypeError
    otherwise), so every params that builds decodes back from its bytes;
    dim >= 1, 1 <= n_tuples <= MAX_TUPLES and l1 <= l2 (ValueError otherwise).
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
        require_int("ProtocolParams.dim", self.dim, 1)
        require_int("ProtocolParams.n_tuples", self.n_tuples, 1, MAX_TUPLES)
        require_int("ProtocolParams.l", self.l)
        require_int("ProtocolParams.l1", self.l1)
        require_int("ProtocolParams.l2", self.l2, self.l1)
        require_int("ProtocolParams.seed", self.seed)
        if not self.publics:
            raise ValueError("need at least one public matrix")
        for w in self.publics:
            if w.kind is not self.kind or w.dim != self.dim:
                raise ValueError("public matrix does not match params kind/dim")
        if not len(self.left_families) == len(self.right_families) == len(self.publics):
            raise ValueError("need one family pair per public matrix")
        for spec in (*self.left_families, *self.right_families):
            if spec.kind is not self.kind or spec.dim != self.dim:
                raise ValueError("family spec does not match params kind/dim")

    @property
    def blocks(self) -> int:
        return len(self.publics)


@dataclass(frozen=True)
class Message:
    sender: str  # "alice" | "bob"
    label: str
    payload: object  # Matrix | MarginalSet | tuple[Matrix, ...]

    def __post_init__(self):
        if self.sender not in ("alice", "bob"):
            raise ValueError(f"unknown sender {self.sender!r}")
        if not isinstance(self.label, str):
            raise TypeError("message label must be a str")
        items = self.payload if isinstance(self.payload, tuple) else (self.payload,)
        if not (isinstance(self.payload, MarginalSet) or all(isinstance(m, Matrix) for m in items)):
            raise TypeError("payload must be a Matrix, a MarginalSet or a tuple of Matrix")


@dataclass(frozen=True)
class ProtocolTranscript:
    """A run as published.  It checks its fields, so every transcript that
    builds encodes to bytes that decode back to it (README, Input contracts)."""

    protocol: str
    params: ProtocolParams
    seed: int
    messages: tuple[Message, ...]
    key_a: Matrix
    key_b: Matrix
    annotations: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.protocol, str) or self.protocol not in _EXCHANGES:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        require_int("ProtocolTranscript.seed", self.seed)
        if not all(isinstance(a, str) for a in self.annotations):
            raise TypeError("annotations must be strs")
        carried = [self.key_a, self.key_b]
        if not (
            isinstance(self.params, ProtocolParams)
            and all(isinstance(x, Matrix) for x in carried)
            and all(isinstance(m, Message) for m in self.messages)
        ):
            raise TypeError("a transcript takes ProtocolParams, Messages and Matrix keys")
        for p in (m.payload for m in self.messages):
            carried += p if isinstance(p, tuple) else [p.word if isinstance(p, MarginalSet) else p]
        kind, dim = self.params.kind, self.params.dim
        if any(x.kind is not kind or x.dim != dim for x in carried):
            raise ValueError(f"a key or payload is not a {kind} matrix of dim {dim}")

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
        if not m.has_inf:
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
    word = lambda *cs: chain_word(cs)
    return [(sample_five_factor_marginal, word, anchors, (params.l1, params.l2))]


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
    """Take both parties' secrets, sets and picks from the draw or from the
    script, then run once: commuting checks, u and v, keys, transcript."""
    ex = _EXCHANGES[exchange]
    n, kind, dim = params.blocks, params.kind, params.dim
    if ex.single and n != 1:
        raise ValueError(f"{ex.single} exchange uses a single public matrix")

    def plan(own) -> list:
        return ex.sets(params, *own) if ex.sets else []

    # The source: (ps, qs) and published sets for Alice, then Bob, and
    # pick(party, theirs), called only after the commuting checks.
    if params.script is None:
        member = sample_finite_member if ex.sets else sample_family_member

        def secrets():
            pairs = zip(params.left_families, params.right_families)
            return tuple(zip(*[(member(left, rng), member(right, rng)) for left, right in pairs]))

        def publish(own) -> list[MarginalSet]:
            return [f(*anchors, params.n_tuples, *caps, rng) for f, _, anchors, caps in plan(own)]

        own = [secrets(), secrets()] if ex.secrets_first else []  # both parties' secrets first
        sets = [publish(o) for o in own]
        for _ in range(len(own), 2):
            own.append(secrets())
            sets.append(publish(own[-1]))

        def pick(party: int, theirs) -> list[int]:
            return [rng.randrange(len(s)) for s in theirs]
    else:
        script = params.script
        own = [(script.alice_p, script.alice_q), (script.bob_p, script.bob_q)]
        if any(len(secrets) != n for pair in own for secrets in pair):
            raise ValueError("script block count does not match params")
        for name in ("alice_p", "alice_q", "bob_p", "bob_q"):
            for i, m in enumerate(getattr(script, name)):
                if not isinstance(m, Matrix) or m.kind is not kind or m.dim != dim:
                    raise ValueError(
                        f"script secret {name}[{i}] is not a {kind} matrix of dim {dim}"
                    )
        bodies = (script.alice_sets, script.bob_sets)
        plans = []
        for o, b in zip(own, bodies):
            plans.append(plan(o))
            if len(b) != len(plans[-1]):
                raise ValueError(
                    f"{exchange} exchange publishes {len(plans[-1])} set(s) per party, "
                    f"script gives {len(b)}"
                )
        sets = [
            [make_marginal_set(word(*anchors), body) for (_, word, anchors, _), body in zip(p, b)]
            for p, b in zip(plans, bodies)
        ]
        choices = (script.alice_choices, script.bob_choices)

        def pick(party: int, theirs) -> list[int]:
            given = choices[party]
            if len(given) != len(theirs):
                raise ValueError(f"script gives {len(given)} choice(s) for {len(theirs)} set(s)")
            return [require_int("script choice", c, 0, len(s) - 1) for c, s in zip(given, theirs)]

    (ap, aq), (bp, bq) = own
    for i in range(n):
        where = "" if ex.single else f" block {i + 1}"
        _require_commuting(f"left{where}", ap[i], bp[i])
        _require_commuting(f"right{where}", aq[i], bq[i])

    def masked(ps, qs, theirs, picks) -> tuple[Matrix, ...]:
        masks = [m for s, c in zip(theirs, picks) for m in s.tuples[c]] or [None] * (2 * n)
        blocks = []
        for p, w, q, c, d in zip(ps, params.publics, qs, masks[0::2], masks[1::2]):
            factor = {"c": c, "p": p, "W": w, "q": q, "d": d}
            blocks.append(mat_prod(kind, dim, [factor[x] for x in ex.layout]))
        return tuple(blocks)

    u = masked(ap, aq, sets[1], pick(0, sets[1]))
    v = masked(bp, bq, sets[0], pick(1, sets[0]))
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
    require_int("degree", degree, 0)
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
    No conjugate aᵢ⊗W⊗bⱼ is formed: over degree-D power bases the attack
    forms 4D products, 2D when u does not decompose.
    """
    kind, dim = w.kind, w.dim
    if not left_basis or not right_basis:
        raise ValueError("bases must be nonempty")
    for m in (w, u, v, *left_basis, *right_basis):
        if m.kind is not kind or m.dim != dim:
            raise ValueError("attack inputs must share kind and dimension")
    for m in (w, u, v):
        if m.has_inf:
            raise ValueError("attack requires finite public values")
    e = identity(kind, dim)
    o = add_neutral(kind)

    def times(x: Matrix, y: Matrix) -> Matrix:
        """x⊗y, without a product when either factor is the identity (power
        bases start with it)."""
        return y if x == e else x if y == e else mat_mul(x, y)

    # (aᵢ⊗W⊗bⱼ)ᵣₛ is finite iff row r of aᵢ and column s of bⱼ each hold a
    # finite entry, W being finite: the identity's infinities do no harm
    lines = [a.rows for a in left_basis if a.has_inf]
    lines += [zip(*b.rows) for b in right_basis if b.has_inf]
    if any(all(x is o for x in line) for ls in lines for line in ls):
        raise ValueError("a basis conjugate has infinite entries")

    # z_ij, the extreme entry of u − aᵢ⊗W⊗bⱼ, is that of Lᵢ − W⊗bⱼ, read flat;
    # (Lᵢ)ₗₛ, the left residual of u by aᵢ, is the extreme of u_rs − (aᵢ)ᵣₗ
    # over the r with (aᵢ)ᵣₗ finite, or -o (it never wins) if there is none
    extreme = max if kind is SemiringKind.MIN_PLUS else min
    u_cols = tuple(zip(*u.rows))

    def residual(a: Matrix) -> list:
        if a == e:
            return [x for row in u.rows for x in row]
        if not a.has_inf:
            return [extreme(map(sub, uc, ac)) for ac in zip(*a.rows) for uc in u_cols]
        return [
            extreme([x - y for x, y in zip(uc, ac) if y is not o], default=-o)
            for ac in zip(*a.rows)
            for uc in u_cols
        ]

    wbs = [times(w, b) for b in right_basis]
    negated = [[-x for row in wb.rows for x in row] for wb in wbs]
    z_table = tuple(
        tuple(as_scalar(extreme(map(add, res, neg))) for neg in negated)
        for res in map(residual, left_basis)
    )

    def combined(mbs: list[Matrix]) -> Matrix:
        """⊕_ij z_ij ⊗ aᵢ⊗M⊗bⱼ as ⊕ᵢ aᵢ ⊗ (⊕ⱼ z_ij ⊗ M⊗bⱼ), by distributivity."""
        terms = [
            times(a, linear_combination(kind, dim, zs, mbs)) for a, zs in zip(left_basis, z_table)
        ]
        return linear_combination(kind, dim, [MUL_NEUTRAL] * len(terms), terms)

    if combined(wbs) != u:
        raise NoDecomposition(z_table)
    return combined([times(v, b) for b in right_basis]), z_table
