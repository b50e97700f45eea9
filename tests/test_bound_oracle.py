"""Residuation tables against brute-force oracles.

The oracles are the nested-loop definitions: the full k^(2n) bound tensor of
a chain (computed over min-plus, negated from the dual chain for max-plus),
the two-sided tensor a_ij - a_pq, and the principal one-sided solutions as
an extreme over l.  The library stores only k×k factors; every accessor must
agree with the oracle entry for entry.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tropmarg.marginal import (
    five_factor_residual,
    n_factor_residual,
    residual_left,
    residual_right,
    two_sided_residual,
)
from tropmarg.matrix import dual, make_matrix, mat_prod
from tropmarg.semiring import SemiringKind, as_scalar

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS


def oracle_chain_tensor(chain):
    """bound[p₁][q₁]...[pₙ][qₙ] = max over i, j of d_ij - A₁[i][p₁]
    - Σₜ Aₜ₊₁[qₜ][pₜ₊₁] - Aₙ₊₁[qₙ][j] over min-plus; the negated tensor of
    the dual chain over max-plus."""
    first = chain[0]
    if first.kind is MAX:
        inner = oracle_chain_tensor([dual(m) for m in chain])

        def negate(node):
            if isinstance(node, tuple):
                return tuple(negate(x) for x in node)
            return -node

        return negate(inner)
    n = len(chain) - 1
    k = first.dim
    d = mat_prod(first.kind, k, chain)

    def tensor(prefix):
        if len(prefix) == 2 * n:
            best = None
            for i in range(k):
                for j in range(k):
                    v = d.rows[i][j] - chain[0].rows[i][prefix[0]]
                    for t in range(1, n):
                        v -= chain[t].rows[prefix[2 * t - 1]][prefix[2 * t]]
                    v -= chain[n].rows[prefix[-1]][j]
                    if best is None or v > best:
                        best = v
            return best
        return tuple(tensor(prefix + (x,)) for x in range(k))

    return tensor(())


def oracle_two_sided_tensor(a):
    k = a.dim
    return tuple(
        tuple(
            tuple(tuple(a[i][j] - a[p][q] for j in range(k)) for q in range(k))
            for p in range(k)
        )
        for i in range(k)
    )


def entry(tensor, index):
    for i in index:
        tensor = tensor[i]
    return tensor


def oracle_zero_pairs(tensor, k, n):
    return frozenset(
        p
        for p in itertools.product(range(k), repeat=n)
        if entry(tensor, [i for i in p for _ in range(2)]) == 0
    )


def oracle_block_matrix(tensor, k, n):
    """Row r holds the row indices (p₁..pₙ) as base-k digits of r, most
    significant first, and column c the column indices (q₁..qₙ)."""

    def digits(x):
        out = []
        for _ in range(n):
            out.append(x % k)
            x //= k
        return out[::-1]

    return tuple(
        tuple(
            entry(tensor, [v for pq in zip(digits(r), digits(c)) for v in pq])
            for c in range(k**n)
        )
        for r in range(k**n)
    )


def check_table(table, tensor, k, n):
    assert table.n_slots == n
    for index in itertools.product(range(k), repeat=2 * n):
        assert table.bound(*index) == entry(tensor, index), index
    assert table.block_matrix() == oracle_block_matrix(tensor, k, n)
    zero = oracle_zero_pairs(tensor, k, n)
    assert table.zero_pairs == zero
    assert table.px == frozenset(p[0] for p in zero)
    assert table.py == frozenset(p[-1] for p in zero)


def random_matrix(kind, k, fractions, rng):
    def value():
        if fractions:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 4))
        return rng.randint(-20, 20)

    return make_matrix(kind, [[value() for _ in range(k)] for _ in range(k)])


def oracle_pin_free(table):
    """G[r][s] = max over p in px of (E[p][s] - B[p][r]), as nested loops."""
    e, b, k = table.outer.rows, table.chain[1].rows, table.product.dim
    return make_matrix(
        MIN, [[max(e[p][s] - b[p][r] for p in table.px) for s in range(k)] for r in range(k)]
    )


# the two-slot chains also at dims 5 and 6, the pair workloads' dims
CASES = [
    (k, n, kind, fractions)
    for k in (1, 2, 3, 4, 5, 6)
    for n in ((1, 2, 3) if k <= 4 else (2,))
    for kind in (MIN, MAX)
    for fractions in (False, True)
]


@pytest.mark.parametrize("k,n,kind,fractions", CASES)
def test_chain_table_matches_the_nested_loop_tensor(k, n, kind, fractions):
    rng = random.Random(f"chain/{k}/{n}/{kind.value}/{fractions}")
    for _ in range(2 if k ** (2 * n) <= 729 else 1):
        chain = [random_matrix(kind, k, fractions, rng) for _ in range(n + 1)]
        table = n_factor_residual(chain)
        check_table(table, oracle_chain_tensor(chain), k, n)
        assert table.product == mat_prod(kind, k, chain)
        if n == 2:
            five = five_factor_residual(*chain)
            check_table(five, oracle_chain_tensor(chain), k, n)
            if kind is MIN and not fractions:  # the pair solve keeps G on min-plus int tables
                assert five._pin_free == oracle_pin_free(five)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", [MIN, MAX])
@pytest.mark.parametrize("fractions", [False, True])
def test_two_sided_table_matches_the_difference_tensor(k, kind, fractions):
    rng = random.Random(f"two-sided/{k}/{kind.value}/{fractions}")
    for _ in range(3):
        a = random_matrix(kind, k, fractions, rng)
        table = two_sided_residual(a)
        check_table(table, oracle_two_sided_tensor(a), k, 2)
        assert table.zero_pairs == frozenset(itertools.product(range(k), repeat=2))
        if kind is MIN and not fractions:
            assert table._pin_free == oracle_pin_free(table)


def oracle_residual(a, side):
    pick = max if a.kind is MIN else min
    k = a.dim
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            best = None
            for l in range(k):
                if side == "right":
                    d = a[l][j] - a[l][i]
                else:
                    d = a[i][l] - a[j][l]
                best = d if best is None else pick(best, d)
            row.append(best)
        rows.append(row)
    return make_matrix(a.kind, rows)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", [MIN, MAX])
@pytest.mark.parametrize("fractions", [False, True])
def test_one_sided_residuals_match_their_definitions(k, kind, fractions):
    rng = random.Random(f"one-sided/{k}/{kind.value}/{fractions}")
    for _ in range(5):
        a = random_matrix(kind, k, fractions, rng)
        right, left = residual_right(a), residual_left(a)
        assert right == oracle_residual(a, "right")
        assert left == oracle_residual(a, "left")


def oracle_outer(chain):
    """E[p][s] = max over i, j of d_ij - A₁[i][p] - Aₙ₊₁[s][j] over min-plus,
    in canonical scalars; the negated E of the dual chain over max-plus."""
    if chain[0].kind is MAX:
        rows = oracle_outer([dual(m) for m in chain])
        return tuple(tuple(-v for v in row) for row in rows)
    k = chain[0].dim
    d = mat_prod(MIN, k, chain)
    a, c = chain[0], chain[-1]
    return tuple(
        tuple(
            as_scalar(max(d[i][j] - a[i][p] - c[s][j] for i in range(k) for j in range(k)))
            for s in range(k)
        )
        for p in range(k)
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", [MIN, MAX])
@pytest.mark.parametrize("fractions", [False, True])
def test_chain_outer_bound_matches_its_definition(k, n, kind, fractions):
    # repr pins the scalar types too: 3 and Fraction(3, 1) are equal
    rng = random.Random(f"outer/{k}/{n}/{kind.value}/{fractions}")
    for _ in range(3):
        chain = [random_matrix(kind, k, fractions, rng) for _ in range(n + 1)]
        outer = n_factor_residual(chain).outer
        assert outer.kind is kind
        assert repr(outer.rows) == repr(oracle_outer(chain))
