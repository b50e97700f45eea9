"""The chain sampler's block repair against the lexicographic pass it replaced.

The reference below is the earlier repair pass of `sample_n_factor_marginal`,
kept verbatim: it walks all k^(2n) index tuples of the bound table in
lexicographic order and lifts the first off-diagonal entry of each violated
tuple.  `_repair_chain` replays the same pass one block of tuples at a time.
Both must leave the same entries (compared by `repr` after `make_matrix`,
which keeps entries canonical) or raise the same error, and the sampler built
on either must give the same set, byte for byte.  Chains run over k 1-6 and
1-5 slots, with k^(2n) capped so that the reference stays fast, on int and
`Fraction` constants over both semirings.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg.marginal import (
    _repair_chain,
    _sample_set,
    chain_word,
    n_factor_residual,
    sample_n_factor_marginal,
)
from pair_reference import min_plus_maps
from tropmarg.matrix import make_matrix, mat_mul
from tropmarg.semiring import SelfCheckError, SemiringKind
from tropmarg.wire import encode_marginal_set

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS
MAX_TUPLES = 4096  # cap on k^(2n), the reference's work per repair

# ---------------------------------------------------------------------------
# Reference repair pass and sampler (verbatim).


def ref_repair(table, mats):
    n, k = table.n_slots, table.product.dim
    for index in itertools.product(range(k), repeat=2 * n):
        need = table.bound(*index)
        have = sum(mats[t][index[2 * t]][index[2 * t + 1]] for t in range(n))
        if have < need:
            for t in range(n):
                if index[2 * t] != index[2 * t + 1]:
                    mats[t][index[2 * t]][index[2 * t + 1]] += need - have
                    break
            else:
                raise SelfCheckError("all-diagonal bound violated")


def ref_sample_n_factor_marginal(chain, n_tuples, l1, l2, rng):
    if l1 > l2:
        raise ValueError("empty bound range")
    chain = list(chain)
    flip, _ = min_plus_maps(chain[0].kind)
    table = n_factor_residual([flip(m) for m in chain])
    n, k = table.n_slots, table.product.dim

    def draw():
        hs = [rng.randint(l1, l2) for _ in range(n - 1)]
        hs.append(-sum(hs))
        mats = [
            [
                [hs[t] if i == j else rng.randint(l1, l2) for j in range(k)]
                for i in range(k)
            ]
            for t in range(n)
        ]
        ref_repair(table, mats)
        xs = tuple(make_matrix(SemiringKind.MIN_PLUS, m) for m in mats)
        slots = itertools.chain.from_iterable(zip(xs, table.chain[1:]))
        if functools.reduce(mat_mul, [table.chain[0], *slots]) != table.product:
            raise SelfCheckError("sampled tuple changes the chain product")
        return xs

    return _sample_set(chain_word(chain), n_tuples, draw, flip)


# ---------------------------------------------------------------------------
# Strategies.

SHAPES = [
    (k, n) for k in range(1, 7) for n in range(1, 6) if k ** (2 * n) <= MAX_TUPLES
]


@st.composite
def chains(draw):
    k, n = draw(st.sampled_from(SHAPES))
    kind = draw(st.sampled_from([MIN, MAX]))
    if draw(st.booleans()):
        entry = st.builds(Fraction, st.integers(-27, 27), st.integers(1, 3))
    else:
        entry = st.integers(-12, 12)
    row = st.lists(entry, min_size=k, max_size=k)
    return [
        make_matrix(kind, draw(st.lists(row, min_size=k, max_size=k)))
        for _ in range(n + 1)
    ]


def _table(chain):
    flip, _ = min_plus_maps(chain[0].kind)
    return n_factor_residual([flip(m) for m in chain])


def _outcome(repair, table, mats):
    mats = [[list(row) for row in m] for m in mats]
    try:
        repair(table, mats)
    except SelfCheckError as e:
        return ("raises", str(e))
    return repr([make_matrix(MIN, m).rows for m in mats])


# ---------------------------------------------------------------------------
# Tests.


@settings(max_examples=150, deadline=None, derandomize=True)
@given(chains(), st.data())
def test_block_repair_matches_lexicographic_pass(chain, data):
    table = _table(chain)
    n, k = table.n_slots, table.product.dim
    value = st.integers(-15, 15)
    if data.draw(st.booleans(), label="zero-sum diagonal"):
        hs = data.draw(st.lists(value, min_size=n - 1, max_size=n - 1), label="h")
        hs.append(-sum(hs))
    else:
        # free diagonals, so the all-diagonal check can fire
        hs = data.draw(st.lists(value, min_size=n, max_size=n), label="h")
    mats = [
        [
            [hs[t] if i == j else data.draw(value) for j in range(k)]
            for i in range(k)
        ]
        for t in range(n)
    ]
    assert _outcome(_repair_chain, table, mats) == _outcome(ref_repair, table, mats)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chains(), st.integers(0, 2**32), st.integers(1, 3))
def test_chain_sampler_matches_reference_byte_for_byte(chain, seed, count):
    got = sample_n_factor_marginal(chain, count, -8, 8, random.Random(seed))
    want = ref_sample_n_factor_marginal(chain, count, -8, 8, random.Random(seed))
    assert repr(got.tuples) == repr(want.tuples)
    assert encode_marginal_set(got) == encode_marginal_set(want)


def test_shapes_cover_every_k_and_slot_count():
    assert {k for k, _ in SHAPES} == set(range(1, 7))
    assert {n for _, n in SHAPES} == set(range(1, 6))
