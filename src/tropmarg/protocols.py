"""Two-party key-agreement runs over commuting tropical matrix families.

Four exchanges are implemented: the classic commuting-conjugation baseline
(both parties publish p⊗W⊗q), and three variants that wrap the published
value in tuples drawn from marginal sets so that the factors an eavesdropper
would need to re-order are no longer exposed.  A decomposition attack against
the baseline is included; it recovers the key whenever the secrets lie in the
span of a public basis.

All runs are deterministic functions of (params, rng) and produce a
transcript whose public section never contains party secrets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .families import FamilySpec, commute_check, family_dim, family_kind, sample_family_member
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
from .matrix import Matrix, identity, mat_add, mat_mul, mat_prod, scalar_mul
from .semiring import SelfCheckError, SemiringKind, s_max, s_min, s_sub


# --------------------------------------------------------------------------
# Parameters, scripted replays, transcripts


@dataclass(frozen=True)
class SidelnikovScript:
    p1: Matrix
    q1: Matrix
    p2: Matrix
    q2: Matrix


@dataclass(frozen=True)
class OneSidedScript:
    p1: Matrix
    q1: Matrix
    p2: Matrix
    q2: Matrix
    m1: tuple
    n1: tuple
    m2: tuple
    n2: tuple
    c2_index: int
    d2_index: int
    c1_index: int
    d1_index: int


@dataclass(frozen=True)
class SandwichScript:
    p1: Matrix
    q1: Matrix
    p2: Matrix
    q2: Matrix
    m1: tuple
    m2: tuple
    alice_choice: int
    bob_choice: int


@dataclass(frozen=True)
class MultiblockScript:
    alice_p: tuple
    alice_q: tuple
    bob_p: tuple
    bob_q: tuple
    alice_sets: tuple  # n+1 raw set bodies, in publication order
    bob_sets: tuple
    alice_choices: tuple  # indices into Bob's sets, publication order
    bob_choices: tuple

    @property
    def blocks(self) -> int:
        return len(self.alice_p)


ProtocolScript = Union[SidelnikovScript, OneSidedScript, SandwichScript, MultiblockScript]


@dataclass(frozen=True)
class ProtocolParams:
    """Public agreement for one run.

    publics holds W (or W₁..Wₙ for the block protocol); left_families and
    right_families hold one commuting-family spec per block (H_i, R_i).
    n_tuples, l, l1, l2 parameterize the marginal samplers.  seed is the
    default stream; a scripted replay, when present, supplies the secrets,
    published sets and tuple choices verbatim and is never serialized.
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
            if family_kind(spec) is not self.kind or family_dim(spec) != self.dim:
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
        if self.params.script is None:
            return self.params
        return ProtocolParams(
            kind=self.params.kind,
            dim=self.params.dim,
            publics=self.params.publics,
            left_families=self.params.left_families,
            right_families=self.params.right_families,
            n_tuples=self.params.n_tuples,
            l=self.params.l,
            l1=self.params.l1,
            l2=self.params.l2,
            seed=self.params.seed,
        )


def _require_commuting(kind: str, a: Matrix, b: Matrix) -> None:
    if not commute_check(a, b):
        raise ValueError(f"{kind} secrets do not commute; family spec is broken")


def _agreed(key_a: Matrix, key_b: Matrix) -> tuple[Matrix, Matrix]:
    if key_a != key_b:
        raise SelfCheckError("the two derived keys differ")
    return key_a, key_b


def _pick(rng: random.Random, s: MarginalSet, scripted: Optional[int]):
    index = rng.randrange(len(s.tuples)) if scripted is None else scripted
    t = s.tuples[index]
    return t[0] if len(t) == 1 else t


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
# Baseline exchange


def run_sidelnikov(params: ProtocolParams, rng: random.Random) -> ProtocolTranscript:
    """Both parties publish p⊗W⊗q; the shared key is p₁⊗p₂⊗W⊗q₂⊗q₁."""
    if params.blocks != 1:
        raise ValueError("baseline exchange uses a single public matrix")
    w = params.publics[0]
    script = params.script
    if script is None:
        p1 = sample_family_member(params.left_families[0], rng)
        q1 = sample_family_member(params.right_families[0], rng)
        p2 = sample_family_member(params.left_families[0], rng)
        q2 = sample_family_member(params.right_families[0], rng)
    else:
        p1, q1, p2, q2 = script.p1, script.q1, script.p2, script.q2
    _require_commuting("left", p1, p2)
    _require_commuting("right", q1, q2)
    u = mat_prod(w.kind, w.dim, [p1, w, q1])
    v = mat_prod(w.kind, w.dim, [p2, w, q2])
    key_a, key_b = _agreed(
        mat_prod(w.kind, w.dim, [p1, v, q1]), mat_prod(w.kind, w.dim, [p2, u, q2])
    )
    return ProtocolTranscript(
        protocol="sidelnikov",
        params=params,
        seed=params.seed,
        messages=(Message("alice", "u", u), Message("bob", "v", v)),
        key_a=key_a,
        key_b=key_b,
        annotations=("keys agree",),
    )


# --------------------------------------------------------------------------
# One-sided marginal exchange


def run_protocol_one_sided(params: ProtocolParams, rng: random.Random) -> ProtocolTranscript:
    """Published values are masked by tuples from right/left marginal sets of
    the secrets: u = c₂⊗p₁⊗W⊗q₁⊗d₂ with p₁⊗c = p₁ for all c in M₁, etc."""
    if params.blocks != 1:
        raise ValueError("one-sided exchange uses a single public matrix")
    w = params.publics[0]
    script = params.script
    if script is None:
        p1 = sample_finite_member(params.left_families[0], rng)
        q1 = sample_finite_member(params.right_families[0], rng)
        m1 = sample_right_marginal(p1, params.n_tuples, params.l, rng)
        n1 = sample_left_marginal(q1, params.n_tuples, params.l, rng)
        p2 = sample_finite_member(params.left_families[0], rng)
        q2 = sample_finite_member(params.right_families[0], rng)
        m2 = sample_right_marginal(p2, params.n_tuples, params.l, rng)
        n2 = sample_left_marginal(q2, params.n_tuples, params.l, rng)
        idx = [None, None, None, None]
    else:
        p1, q1, p2, q2 = script.p1, script.q1, script.p2, script.q2
        m1 = make_marginal_set(right_word(p1), script.m1)
        n1 = make_marginal_set(left_word(q1), script.n1)
        m2 = make_marginal_set(right_word(p2), script.m2)
        n2 = make_marginal_set(left_word(q2), script.n2)
        idx = [script.c2_index, script.d2_index, script.c1_index, script.d1_index]
    _require_commuting("left", p1, p2)
    _require_commuting("right", q1, q2)

    c2, d2 = _pick(rng, m2, idx[0]), _pick(rng, n2, idx[1])
    u = mat_prod(w.kind, w.dim, [c2, p1, w, q1, d2])
    c1, d1 = _pick(rng, m1, idx[2]), _pick(rng, n1, idx[3])
    v = mat_prod(w.kind, w.dim, [c1, p2, w, q2, d1])
    key_a, key_b = _agreed(
        mat_prod(w.kind, w.dim, [p1, v, q1]), mat_prod(w.kind, w.dim, [p2, u, q2])
    )
    return ProtocolTranscript(
        protocol="one-sided",
        params=params,
        seed=params.seed,
        messages=(
            Message("alice", "M1", m1),
            Message("alice", "N1", n1),
            Message("bob", "M2", m2),
            Message("bob", "N2", n2),
            Message("alice", "u", u),
            Message("bob", "v", v),
        ),
        key_a=key_a,
        key_b=key_b,
        annotations=(
            f"marginal sets hold {len(m1)}/{len(n1)}/{len(m2)}/{len(n2)} tuples",
            "keys agree",
        ),
    )


# --------------------------------------------------------------------------
# Sandwich (pair) marginal exchange


def run_protocol_sandwich(params: ProtocolParams, rng: random.Random) -> ProtocolTranscript:
    """Each party publishes one set of pairs marginal for p·□·W·□·q and masks
    its message as u = p₁⊗c₂⊗W⊗d₂⊗q₁."""
    if params.blocks != 1:
        raise ValueError("sandwich exchange uses a single public matrix")
    w = params.publics[0]
    script = params.script
    if script is None:
        p1 = sample_finite_member(params.left_families[0], rng)
        q1 = sample_finite_member(params.right_families[0], rng)
        m1 = sample_five_factor_marginal(
            p1, w, q1, params.n_tuples, params.l1, params.l2, rng
        )
        p2 = sample_finite_member(params.left_families[0], rng)
        q2 = sample_finite_member(params.right_families[0], rng)
        m2 = sample_five_factor_marginal(
            p2, w, q2, params.n_tuples, params.l1, params.l2, rng
        )
        idx = [None, None]
    else:
        p1, q1, p2, q2 = script.p1, script.q1, script.p2, script.q2
        m1 = make_marginal_set(five_factor_word(p1, w, q1), script.m1)
        m2 = make_marginal_set(five_factor_word(p2, w, q2), script.m2)
        idx = [script.alice_choice, script.bob_choice]
    _require_commuting("left", p1, p2)
    _require_commuting("right", q1, q2)

    c2, d2 = _pick(rng, m2, idx[0])
    u = mat_prod(w.kind, w.dim, [p1, c2, w, d2, q1])
    c1, d1 = _pick(rng, m1, idx[1])
    v = mat_prod(w.kind, w.dim, [p2, c1, w, d1, q2])
    key_a, key_b = _agreed(
        mat_prod(w.kind, w.dim, [p1, v, q1]), mat_prod(w.kind, w.dim, [p2, u, q2])
    )
    return ProtocolTranscript(
        protocol="sandwich",
        params=params,
        seed=params.seed,
        messages=(
            Message("alice", "M1", m1),
            Message("bob", "M2", m2),
            Message("alice", "u", u),
            Message("bob", "v", v),
        ),
        key_a=key_a,
        key_b=key_b,
        annotations=(
            f"marginal sets hold {len(m1)}/{len(m2)} pairs",
            "keys agree",
        ),
    )


# --------------------------------------------------------------------------
# Block-chained exchange


def _block_labels(party: str, blocks: int) -> list[str]:
    digit = "1" if party == "alice" else "2"
    return [f"M{digit}{j}" for j in range(1, blocks + 2)]


def _publish_blocks(
    params: ProtocolParams,
    secrets_p: Sequence[Matrix],
    secrets_q: Sequence[Matrix],
    raw_sets,
    rng: random.Random,
) -> list[MarginalSet]:
    """A party's n+1 published sets: right set for p₁, sandwich sets for each
    q_{i-1}⊗p_i seam, left set for q_n.  raw_sets, when given, carries a
    scripted replay's bodies."""
    n = params.blocks
    sets: list[MarginalSet] = []
    if raw_sets is None:
        sets.append(sample_right_marginal(secrets_p[0], params.n_tuples, params.l, rng))
        for i in range(1, n):
            seam = mat_mul(secrets_q[i - 1], secrets_p[i])
            sets.append(
                sample_sandwich_marginal(seam, params.n_tuples, params.l1, params.l2, rng)
            )
        sets.append(sample_left_marginal(secrets_q[n - 1], params.n_tuples, params.l, rng))
        return sets
    sets.append(make_marginal_set(right_word(secrets_p[0]), raw_sets[0]))
    for i in range(1, n):
        seam = mat_mul(secrets_q[i - 1], secrets_p[i])
        sets.append(make_marginal_set(sandwich_word(seam), raw_sets[i]))
    sets.append(make_marginal_set(left_word(secrets_q[n - 1]), raw_sets[n]))
    return sets


def _choose_blocks(
    their_sets: Sequence[MarginalSet], indices, rng: random.Random, blocks: int
) -> tuple[list[Matrix], list[Matrix]]:
    """Split the picks from the other party's n+1 sets into the c-mask and
    d-mask used around each block: c₁ | (d₁,c₂) | ... | dₙ."""
    cs: list[Matrix] = []
    ds: list[Matrix] = [None] * blocks
    pick0 = _pick(rng, their_sets[0], None if indices is None else indices[0])
    cs.append(pick0)
    for i in range(1, blocks):
        d_prev, c_next = _pick(rng, their_sets[i], None if indices is None else indices[i])
        ds[i - 1] = d_prev
        cs.append(c_next)
    ds[blocks - 1] = _pick(
        rng, their_sets[blocks], None if indices is None else indices[blocks]
    )
    return cs, ds


def run_protocol_multiblock(params: ProtocolParams, rng: random.Random) -> ProtocolTranscript:
    """n public matrices, n commuting family pairs; each block i carries
    cᵢ⊗pᵢ⊗Wᵢ⊗qᵢ⊗dᵢ and the key is the ordered product of the unmasked
    blocks.  n=2 is the four-set exchange from the worked example."""
    n = params.blocks
    script = params.script
    if script is None:
        ap, aq, bp, bq = [], [], [], []
        for i in range(n):
            ap.append(sample_finite_member(params.left_families[i], rng))
            aq.append(sample_finite_member(params.right_families[i], rng))
        for i in range(n):
            bp.append(sample_finite_member(params.left_families[i], rng))
            bq.append(sample_finite_member(params.right_families[i], rng))
        a_sets = _publish_blocks(params, ap, aq, None, rng)
        b_sets = _publish_blocks(params, bp, bq, None, rng)
        a_idx = b_idx = None
    else:
        if script.blocks != n:
            raise ValueError("script block count does not match params")
        ap, aq = list(script.alice_p), list(script.alice_q)
        bp, bq = list(script.bob_p), list(script.bob_q)
        a_sets = _publish_blocks(params, ap, aq, script.alice_sets, rng)
        b_sets = _publish_blocks(params, bp, bq, script.bob_sets, rng)
        a_idx, b_idx = list(script.alice_choices), list(script.bob_choices)
    for i in range(n):
        _require_commuting(f"left block {i + 1}", ap[i], bp[i])
        _require_commuting(f"right block {i + 1}", aq[i], bq[i])
    a_labels = _block_labels("alice", n)
    b_labels = _block_labels("bob", n)

    kind, dim = params.kind, params.dim
    a_cs, a_ds = _choose_blocks(b_sets, a_idx, rng, n)
    u = tuple(
        mat_prod(kind, dim, [a_cs[i], ap[i], params.publics[i], aq[i], a_ds[i]])
        for i in range(n)
    )
    b_cs, b_ds = _choose_blocks(a_sets, b_idx, rng, n)
    v = tuple(
        mat_prod(kind, dim, [b_cs[i], bp[i], params.publics[i], bq[i], b_ds[i]])
        for i in range(n)
    )
    key_a_factors: list[Matrix] = []
    key_b_factors: list[Matrix] = []
    for i in range(n):
        key_a_factors += [ap[i], v[i], aq[i]]
        key_b_factors += [bp[i], u[i], bq[i]]
    key_a, key_b = _agreed(
        mat_prod(kind, dim, key_a_factors), mat_prod(kind, dim, key_b_factors)
    )
    messages = [Message("alice", lbl, s) for lbl, s in zip(a_labels, a_sets)]
    messages += [Message("bob", lbl, s) for lbl, s in zip(b_labels, b_sets)]
    messages += [Message("alice", "u", u), Message("bob", "v", v)]
    return ProtocolTranscript(
        protocol="multiblock",
        params=params,
        seed=params.seed,
        messages=tuple(messages),
        key_a=key_a,
        key_b=key_b,
        annotations=(f"{n} block(s), {2 * (n + 1)} marginal sets", "keys agree"),
    )


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
    basis = [identity(a.kind, a.dim)]
    for e in range(degree):
        basis.append(mat_mul(basis[-1], a) if e else a)
    return basis


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
    pick = s_max if kind is SemiringKind.MIN_PLUS else s_min
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
    z_rows = []
    for row in conjugates:
        z_row = []
        for t in row:
            best = None
            for r in range(dim):
                for s in range(dim):
                    d = s_sub(u.rows[r][s], t.rows[r][s])
                    best = d if best is None else pick(best, d)
            z_row.append(best)
        z_rows.append(tuple(z_row))
    z_table = tuple(z_rows)
    recon = None
    for i, row in enumerate(conjugates):
        for j, t in enumerate(row):
            term = scalar_mul(z_table[i][j], t)
            recon = term if recon is None else mat_add(recon, term)
    if recon != u:
        raise NoDecomposition(z_table)
    candidate = None
    for i, a in enumerate(left_basis):
        av = times(a, v)
        for j, b in enumerate(right_basis):
            term = scalar_mul(z_table[i][j], times(av, b))
            candidate = term if candidate is None else mat_add(candidate, term)
    return candidate, z_table
