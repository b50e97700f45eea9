import copy
import dataclasses
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pair_sampler_oracle import anchor

from tropmarg.fixtures import (
    BIL_A,
    BIL_CONSTRAINTS,
    DEF3_A,
    DEF3_ADDITIVE_X,
    DEF3_C1,
    DEF3_C2,
    FF_A,
    FF_B,
    FF_BLOCK_TENSOR,
    FF_C,
    FF_ZERO_PAIRS_1BASED,
    RES_A,
    RES_CAP,
    RES_SAMPLES,
    RES_XHAT,
    RES_XSTAR,
)
from tropmarg.marginal import (
    MAX_WORD_ATOMS,
    BoundTable,
    Box,
    Circle,
    Const,
    MarginalSet,
    MarginalVerificationError,
    WordTemplate,
    _check_pair_point,
    _into_min_plus,
    _sample_pairs,
    _solve_pair,
    additive_word,
    box_marginal_set,
    chain_word,
    cover_check,
    five_factor_residual,
    left_word,
    make_marginal_set,
    max_possible_matrix,
    n_factor_residual,
    render_two_sided_constraints,
    residual_left,
    residual_right,
    right_word,
    sample_additive_marginal,
    sample_five_factor_marginal,
    sample_left_marginal,
    sample_n_factor_marginal,
    sample_right_marginal,
    sample_sandwich_marginal,
    sandwich_word,
    two_sided_residual,
    verify_marginal,
)
from tropmarg.matrix import (
    dual,
    identity,
    make_matrix,
    mat_add,
    mat_mul,
    mat_prod,
    neutral_matrix,
    scalar_mul,
)
from tropmarg.semiring import NEG_INF, POS_INF, SelfCheckError, SemiringKind
from tropmarg.wire import (
    decode_marginal_set,
    decode_word,
    encode_marginal_set,
    encode_word,
    to_canonical_bytes,
)

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS


class TestWordTemplates:
    def test_shapes(self):
        w = sandwich_word(BIL_A)
        assert (w.n_box, w.n_circle, w.arity) == (2, 0, 2)
        assert additive_word(BIL_A).n_circle == 1
        assert chain_word([FF_A, FF_B, FF_C]).arity == 2

    def test_constant_index_out_of_range(self):
        with pytest.raises(ValueError):
            WordTemplate(MIN, 2, (BIL_A,), ((Const(1), Box(0)),))

    def test_circle_must_stand_alone(self):
        with pytest.raises(ValueError):
            WordTemplate(MIN, 2, (BIL_A,), ((Const(0), Circle(0)),))

    def test_box_slots_must_be_contiguous(self):
        with pytest.raises(ValueError):
            WordTemplate(MIN, 2, (BIL_A,), ((Const(0), Box(1)),))

    def test_constant_must_fit(self):
        with pytest.raises(ValueError):
            WordTemplate(MIN, 3, (BIL_A,), ((Const(0), Box(0)),))

    def test_atom_cap(self):
        atoms = (Box(0),) + (Const(0),) * (MAX_WORD_ATOMS - 2)
        assert WordTemplate(MIN, 2, (BIL_A,), (atoms, (Circle(0),))).arity == 2
        with pytest.raises(ValueError, match=f"more than {MAX_WORD_ATOMS} atoms"):
            WordTemplate(MIN, 2, (BIL_A,), (atoms + (Const(0),), (Circle(0),)))

    def test_arity_enforced_at_evaluation(self):
        w = sandwich_word(BIL_A)
        with pytest.raises(ValueError):
            w.evaluate([BIL_A])

    def test_dim_enforced_at_evaluation(self):
        with pytest.raises(ValueError, match="does not fit the template"):
            right_word(DEF3_A).evaluate([BIL_A])

    def test_neutral_values(self):
        # identity in product slots, all-infinity in additive slots
        assert right_word(DEF3_A).neutral_value() == DEF3_A
        assert left_word(DEF3_A).neutral_value() == DEF3_A
        assert sandwich_word(DEF3_A).neutral_value() == DEF3_A
        assert chain_word((FF_A, FF_B, FF_C)).neutral_value() == mat_prod(
            MIN, 3, [FF_A, FF_B, FF_C]
        )
        assert additive_word(DEF3_A).neutral_value() == DEF3_A

    def test_chain_word_evaluation(self):
        w = chain_word([FF_A, FF_B, FF_C])
        x = make_matrix(MIN, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        y = make_matrix(MIN, [[0, 3, 0], [2, 0, 2], [0, 3, 0]])
        assert w.evaluate([x, y]) == mat_prod(MIN, 3, [FF_A, x, FF_B, y, FF_C])
        with pytest.raises(ValueError):
            chain_word([FF_A])


def test_recorded_membership_example():
    w = right_word(DEF3_A)
    assert verify_marginal(w, DEF3_C1)
    assert verify_marginal(w, DEF3_C2)
    assert verify_marginal(additive_word(DEF3_A), DEF3_ADDITIVE_X)
    assert not verify_marginal(w, scalar_mul(1, DEF3_C1))


def test_marginal_set_verifies_at_construction():
    w = right_word(DEF3_A)
    with pytest.raises(ValueError):
        MarginalSet(w, ((scalar_mul(1, DEF3_C1),),))
    s = make_marginal_set(w, [DEF3_C1, DEF3_C2, DEF3_C1])
    assert s.tuples == ((DEF3_C1,), (DEF3_C2,))  # deduplicated, order kept


def test_marginal_set_names_every_failing_index_and_verifies_each_tuple_once(monkeypatch):
    w, bad = right_word(DEF3_A), (scalar_mul(1, DEF3_C1),)
    calls = []
    evaluate = WordTemplate.evaluate

    def counted(self, values):
        calls.append(values)
        return evaluate(self, values)

    monkeypatch.setattr(WordTemplate, "evaluate", counted)
    with pytest.raises(MarginalVerificationError) as caught:
        MarginalSet(w, (bad, (DEF3_C1,), bad, (DEF3_C2,), (DEF3_C1,)))
    assert caught.value.indices == (0, 2)
    assert isinstance(caught.value, ValueError)
    assert len(calls) == 3


class TestOneSidedResiduation:
    def test_principal_solution_golden(self):
        assert residual_right(RES_A) == RES_XSTAR

    def test_outer_corner_golden(self):
        got = max_possible_matrix(RES_XSTAR, RES_CAP)
        assert got == RES_XHAT
        for kind, o in ((MIN, POS_INF), (MAX, NEG_INF)):
            pick = max if kind is MIN else min
            for star, cap in (
                ([[0]], o),
                ([[0, 1], [2, 0]], o),
                ([[0, o], [2, 0]], 1),
                ([[0, o], [o, 0]], Fraction(3, 2)),
                ([[0, 1], [2, 0]], 1),
            ):
                rows = [[x if i == j else pick(cap, x) for j, x in enumerate(r)] for i, r in enumerate(star)]
                want = make_matrix(kind, rows)
                got = max_possible_matrix(make_matrix(kind, star), cap)
                assert got == want

    def test_principal_solution_solves(self):
        assert mat_mul(RES_A, RES_XSTAR) == RES_A
        left = residual_left(RES_A)
        assert mat_mul(left, RES_A) == RES_A
        assert cover_check(RES_A, RES_XSTAR, "right")

    def test_recorded_samples_live_in_the_box(self):
        for x in RES_SAMPLES:
            assert mat_mul(RES_A, x) == RES_A
            for i in range(3):
                for j in range(3):
                    assert RES_XSTAR[i][j] <= x[i][j]
                    assert x[i][j] <= RES_XHAT[i][j]

    def test_max_plus_mirror(self):
        a = dual(RES_A)
        star = residual_right(a)
        assert star == dual(RES_XSTAR)
        assert mat_mul(a, star) == a

    def test_infinite_entries_rejected(self):
        a = make_matrix(MIN, [[0, POS_INF], [0, 0]])
        with pytest.raises(ValueError):
            residual_right(a)


class TestCoverCheck:
    def test_no_tight_position_means_no_cover(self):
        a = make_matrix(MIN, [[0, 0], [0, 0]])
        lifted = make_matrix(MIN, [[1, 1], [1, 1]])
        assert not cover_check(a, lifted, "right")
        assert mat_mul(a, lifted) != a

    def test_escape_raises(self):
        a = make_matrix(MIN, [[0, 0], [0, 0]])
        below = make_matrix(MIN, [[-1, 0], [0, 0]])
        with pytest.raises(ValueError, match="escape"):
            cover_check(a, below, "right")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            cover_check(BIL_A, BIL_A, "middle")

    @pytest.mark.parametrize(
        "shape,side,error,match",
        [
            ("max-plus", "right", TypeError, "semiring mismatch"),
            ("dim-4", "right", ValueError, "dimension mismatch"),
            ("dim-4", "left", ValueError, "dimension mismatch"),
            ("dim-2", "right", ValueError, "dimension mismatch"),
            ("dim-2", "left", ValueError, "dimension mismatch"),
        ],
    )
    def test_an_x_that_does_not_fit_a_raises(self, shape, side, error, match):
        # Each X once passed the check or failed on an index: X* of the
        # min-plus A read over max-plus gave True, X* padded to dim 4 gave
        # True on both sides, and a dim-2 X raised IndexError.
        star = (residual_right if side == "right" else residual_left)(RES_A)
        x = {
            "max-plus": lambda: make_matrix(MAX, star.rows),
            "dim-4": lambda: make_matrix(MIN, [[*row, 9] for row in star.rows] + [[9, 9, 9, 0]]),
            "dim-2": lambda: make_matrix(MIN, [[9, 9], [9, 9]]),
        }[shape]()
        with pytest.raises(error, match=match):
            cover_check(RES_A, x, side)

    def test_agrees_with_product_equality_inside_box(self):
        # both semirings, int and Jones Fraction A, dims 1-5, and X holding
        # the semiring's infinity, which lies inside the box on either one
        rng = random.Random(99)
        seen = set()
        for _ in range(400):
            kind = rng.choice([MIN, MAX])
            n = rng.randint(1, 5)
            a = anchor(kind, n, rng, rng.random() < 0.5)
            side = rng.choice(["right", "left"])
            star = residual_right(a) if side == "right" else residual_left(a)
            inf, away = (POS_INF, 1) if kind is MIN else (NEG_INF, -1)

            # tight with probability 1/2 per entry, else the infinity or a
            # step of whole or half units away from x*
            def entry(x):
                u = rng.random()
                if u < 0.5:
                    return x
                return inf if u < 0.6 else x + away * Fraction(rng.randint(1, 8), 2)

            x = make_matrix(kind, [[entry(v) for v in row] for row in star.rows])
            prod = mat_mul(a, x) if side == "right" else mat_mul(x, a)
            assert cover_check(a, x, side) == (prod == a)
            seen.add((kind, prod == a))
        assert len(seen) == 4


class TestOneSidedSamplers:
    def test_right_sampler_output(self):
        rng = random.Random(5)
        s = sample_right_marginal(RES_A, 4, RES_CAP, rng)
        assert len(s.tuples) == 4
        for (x,) in s.tuples:
            assert mat_mul(RES_A, x) == RES_A
            assert all(x[i][i] == 0 for i in range(3))  # pinned diagonal

    def test_left_sampler_output(self):
        rng = random.Random(6)
        s = sample_left_marginal(RES_A, 4, RES_CAP, rng)
        for (x,) in s.tuples:
            assert mat_mul(x, RES_A) == RES_A

    def test_small_box_caps_distinct_tuples(self):
        a = make_matrix(MIN, [[5]])
        rng = random.Random(0)
        s = sample_right_marginal(a, 3, 0, rng)
        assert s.tuples == ((make_matrix(MIN, [[0]]),),)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample_right_marginal(RES_A, 0, RES_CAP, random.Random(0))


class TestTwoSided:
    def test_bounds_are_differences(self):
        table = two_sided_residual(BIL_A)
        a = BIL_A
        for i in range(2):
            for p in range(2):
                for q in range(2):
                    for j in range(2):
                        assert table.bound(i, p, q, j) == a[i][j] - a[p][q]

    def test_rendered_constraints_golden(self):
        assert render_two_sided_constraints(BIL_A) == BIL_CONSTRAINTS

    def test_sampler_output(self):
        rng = random.Random(11)
        s = sample_sandwich_marginal(BIL_A, 5, -6, 6, rng)
        w = sandwich_word(BIL_A)
        assert 1 <= len(s.tuples) <= 5
        for x, y in s.tuples:
            assert mat_prod(MIN, 2, [x, BIL_A, y]) == BIL_A
            assert verify_marginal(w, (x, y))

    def test_sampler_max_plus(self):
        rng = random.Random(12)
        a = dual(BIL_A)
        s = sample_sandwich_marginal(a, 3, -6, 6, rng)
        for x, y in s.tuples:
            assert mat_prod(MAX, 2, [x, a, y]) == a


class TestFiveFactor:
    def test_block_tensor_golden(self):
        table = five_factor_residual(FF_A, FF_B, FF_C)
        assert table.block_matrix() == FF_BLOCK_TENSOR

    def test_zero_pairs(self):
        table = five_factor_residual(FF_A, FF_B, FF_C)
        got_1based = frozenset((p + 1, r + 1) for p, r in table.zero_pairs)
        assert got_1based == FF_ZERO_PAIRS_1BASED
        assert table.px == frozenset(p for p, _ in table.zero_pairs)
        assert table.py == frozenset(r for _, r in table.zero_pairs)

    def test_sampler_output(self):
        rng = random.Random(21)
        d = mat_prod(MIN, 3, [FF_A, FF_B, FF_C])
        s = sample_five_factor_marginal(FF_A, FF_B, FF_C, 4, -10, 10, rng)
        for x, y in s.tuples:
            assert mat_prod(MIN, 3, [FF_A, x, FF_B, y, FF_C]) == d

    def test_mismatched_chain_rejected(self):
        with pytest.raises(ValueError):
            five_factor_residual(FF_A, FF_B, dual(FF_C))


class TestNFactor:
    def test_two_slot_chain_matches_five_factor_bounds(self):
        table5 = five_factor_residual(FF_A, FF_B, FF_C)
        tablen = n_factor_residual([FF_A, FF_B, FF_C])
        k = 3
        for p in range(k):
            for q in range(k):
                for r in range(k):
                    for s in range(k):
                        assert tablen.bound(p, q, r, s) == table5.bound(p, q, r, s)

    def test_three_slot_sampler(self):
        rng = random.Random(31)
        chain = [FF_A, FF_B, FF_C, mat_mul(FF_A, FF_B)]
        d = mat_prod(MIN, 3, chain)
        s = sample_n_factor_marginal(chain, 3, -8, 8, rng)
        w = chain_word(chain)
        for t in s.tuples:
            x1, x2, x3 = t
            assert mat_prod(MIN, 3, [chain[0], x1, chain[1], x2, chain[2], x3, chain[3]]) == d
            assert verify_marginal(w, t)

    def test_short_chain_rejected(self):
        for chain in ([], [FF_A]):
            with pytest.raises(ValueError, match="chain needs at least two matrices"):
                n_factor_residual(chain)
            with pytest.raises(ValueError, match="chain needs at least two matrices"):
                sample_n_factor_marginal(chain, 3, -2, 2, random.Random(3))


class TestAdditive:
    def test_min_plus_samples_sit_above(self):
        rng = random.Random(41)
        s = sample_additive_marginal(DEF3_A, 6, 20, rng)
        for (x,) in s.tuples:
            assert mat_add(DEF3_A, x) == DEF3_A
            assert all(
                DEF3_A[i][j] <= x[i][j] for i in range(3) for j in range(3)
            )

    def test_max_plus_samples_sit_below(self):
        rng = random.Random(42)
        a = dual(DEF3_A)
        s = sample_additive_marginal(a, 6, 20, rng)
        for (x,) in s.tuples:
            assert mat_add(a, x) == a

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_additive_marginal(DEF3_A, 3, -1, random.Random(0))
        with pytest.raises(ValueError):
            sample_additive_marginal(DEF3_A, 0, 5, random.Random(0))


def _rand_square(kind, rng):
    return make_matrix(
        kind, [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    )


_SAMPLER_NAMES = ["right", "left", "additive", "sandwich", "five_factor", "chain"]


@pytest.mark.parametrize("name", _SAMPLER_NAMES)
def test_sampler_outputs_always_verify_at_volume(name):
    # Hard post-condition, exercised well past anecdote scale: five hundred
    # emitted tuples per sampler, every one checked against its word.
    def draw(a, b, c, rng):
        if name == "right":
            return sample_right_marginal(a, 6, 60, rng)
        if name == "left":
            return sample_left_marginal(a, 6, 60, rng)
        if name == "additive":
            return sample_additive_marginal(a, 6, 8, rng)
        if name == "sandwich":
            return sample_sandwich_marginal(a, 4, -8, 8, rng)
        if name == "five_factor":
            return sample_five_factor_marginal(a, b, c, 3, -8, 8, rng)
        return sample_n_factor_marginal([a, b, c, mat_mul(a, b)], 3, -8, 8, rng)

    seen = 0
    for rep in range(600):
        if seen >= 500:
            break
        kind = MIN if rep % 2 == 0 else MAX
        rng = random.Random(50_000 + 1000 * _SAMPLER_NAMES.index(name) + rep)
        a, b, c = (_rand_square(kind, rng) for _ in range(3))
        s = draw(a, b, c, rng)
        for t in s.tuples:
            assert verify_marginal(s.word, t)
            seen += 1
    assert seen >= 500


@pytest.mark.parametrize("name", _SAMPLER_NAMES)
@pytest.mark.parametrize("kind", [MIN, MAX])
def test_wrong_product_raises_self_check_error(monkeypatch, name, kind):
    # the per-draw checks are real exceptions, so they survive python -O
    import tropmarg.marginal as marginal

    monkeypatch.setattr(marginal, "mat_mul", lambda a, b: scalar_mul(1, a))
    monkeypatch.setattr(marginal, "mat_add", lambda a, b: scalar_mul(1, a))
    rng = random.Random(7)
    a, b, c = (_rand_square(kind, rng) for _ in range(3))
    with pytest.raises(SelfCheckError):
        if name == "right":
            sample_right_marginal(a, 2, 20, rng)
        elif name == "left":
            sample_left_marginal(a, 2, 20, rng)
        elif name == "additive":
            sample_additive_marginal(a, 2, 5, rng)
        elif name == "sandwich":
            sample_sandwich_marginal(a, 2, -8, 8, rng)
        elif name == "five_factor":
            sample_five_factor_marginal(a, b, c, 2, -8, 8, rng)
        else:
            sample_n_factor_marginal([a, b, c], 2, -8, 8, rng)


# --------------------------------------------------------------------------
# Work counts: each tuple is checked once, each pair product formed once


@pytest.fixture
def products(monkeypatch):
    """Counts the matrix products the marginal module forms."""
    import tropmarg.marginal as marginal

    count = [0]

    def counted(a, b):
        count[0] += 1
        return mat_mul(a, b)

    monkeypatch.setattr(marginal, "mat_mul", counted)
    return count


@pytest.fixture
def evaluations(monkeypatch):
    """Records the values of every word evaluation."""
    calls = []
    evaluate = WordTemplate.evaluate

    def recorded(self, values):
        calls.append(tuple(values))
        return evaluate(self, values)

    monkeypatch.setattr(WordTemplate, "evaluate", recorded)
    return calls


@pytest.mark.parametrize("slots", [1, 2, 3])
@pytest.mark.parametrize("kind", [MIN, MAX])
def test_chain_draw_forms_no_product(monkeypatch, products, slots, kind):
    # the set forms the table's n products, D = A₁⊗...⊗Aₙ₊₁; a draw forms
    # none, only the list product Z = X₁⊗S₁ its check reads
    import tropmarg.marginal as marginal

    repaired = [0]
    repair = marginal._repair_chain

    def counted_repair(*args):
        repaired[0] += 1
        return repair(*args)

    monkeypatch.setattr(marginal, "_repair_chain", counted_repair)
    rng = random.Random(11)
    chain = [_rand_square(kind, rng) for _ in range(slots + 1)]
    s = sample_n_factor_marginal(chain, 4, -8, 8, rng)
    assert repaired[0] >= len(s) > 1
    assert products[0] == slots


@pytest.mark.parametrize("shape,per_draw", [("sandwich", 2), ("five_factor", 2)])
@pytest.mark.parametrize("kind", [MIN, MAX])
def test_pair_draw_forms_each_product_once(monkeypatch, products, shape, per_draw, kind):
    import tropmarg.marginal as marginal

    solved = [0]
    solve = marginal._solve_pair

    def counted_solve(*args):
        solved[0] += 1
        return solve(*args)

    monkeypatch.setattr(marginal, "_solve_pair", counted_solve)
    rng = random.Random(11)
    a, b, c = (_rand_square(kind, rng) for _ in range(3))
    if shape == "sandwich":
        table_products = 0
        s = sample_sandwich_marginal(a, 4, -8, 8, rng)
    else:
        table_products = 2  # D = A⊗B⊗C
        s = sample_five_factor_marginal(a, b, c, 4, -8, 8, rng)
    assert solved[0] >= len(s) > 1
    assert products[0] == table_products + per_draw * solved[0]


@pytest.mark.parametrize("shape", ["sandwich", "five_factor"])
@pytest.mark.parametrize("kind", [MIN, MAX])
def test_pair_word_check_reads_the_pair(monkeypatch, shape, kind):
    # a solve whose point and products agree with each other but move the
    # word's value must still fail the draw's word check
    import tropmarg.marginal as marginal

    solve = marginal._solve_pair

    def shifted(*args):
        xs, ys, xby = solve(*args)
        return scalar_mul(1, xs), ys, scalar_mul(1, xby)

    monkeypatch.setattr(marginal, "_solve_pair", shifted)
    rng = random.Random(5)
    a, b, c = (_rand_square(kind, rng) for _ in range(3))
    with pytest.raises(SelfCheckError):
        if shape == "sandwich":
            sample_sandwich_marginal(a, 2, -8, 8, rng)
        else:
            sample_five_factor_marginal(a, b, c, 2, -8, 8, rng)


@pytest.mark.parametrize("change", ["lower-off-diagonal", "raise-diagonal"])
@pytest.mark.parametrize("slots", [1, 3])
@pytest.mark.parametrize("kind", [MIN, MAX])
def test_chain_word_check_reads_the_tuple(monkeypatch, change, slots, kind):
    # a repair that leaves Z = X₁⊗S₁ below E, or moves a pinned diagonal
    # (which keeps Z >= E but can lift z above e at a zero index), must
    # fail the draw's check
    import tropmarg.marginal as marginal

    repair = marginal._repair_chain

    def broken(table, mats):
        s1 = repair(table, mats)
        x = mats[0]
        if change == "raise-diagonal":
            x[0][0] += 1
        else:
            for i, j in itertools.product(range(len(x)), repeat=2):
                x[i][j] -= 100 * (i != j)
        return s1

    monkeypatch.setattr(marginal, "_repair_chain", broken)
    rng = random.Random(5)
    chain = [_rand_square(kind, rng) for _ in range(slots + 1)]
    with pytest.raises(SelfCheckError, match="changes the chain product"):
        sample_n_factor_marginal(chain, 2, -8, 8, rng)


@pytest.mark.parametrize(
    "e,match",
    [
        # E[1][0] > B[1][0]: an all-diagonal bound above 0 lifts y_00 above
        # -h, so the zero pair (0, 0) no longer sums to 0
        ([[0, 0, 0], [1, 0, 0], [0, 0, 0]], "invalid point"),
        # every all-diagonal bound below 0: no zero pair
        ([[-1, -1, -1], [-1, -1, -1], [-1, -1, -1]], "no zero pair"),
    ],
    ids=["diagonal-bound-above-0", "no-zero-pair"],
)
def test_a_table_breaking_a_chain_fact_is_a_self_check_failure(e, match):
    # the pair solve rests on two facts of the tables residual builds;
    # a free table that breaks one is refused, not solved
    e, b = make_matrix(MIN, e), make_matrix(MIN, [[0] * 3] * 3)
    table = BoundTable(e, e, (None, b, None))
    h = 2
    r = [[h if i == j and i in table.px else -5 for j in range(3)] for i in range(3)]
    s = [[-h if i == j and i in table.py else -5 for j in range(3)] for i in range(3)]
    with pytest.raises(SelfCheckError, match=match):
        xs, ys, xby = _solve_pair(table, h, r, s)
        _check_pair_point(table, r, s, xs, ys, xby)


@pytest.mark.parametrize("shape", ["sandwich", "five_factor"])
def test_a_product_entry_no_zero_pair_attains_fails_before_any_draw(monkeypatch, shape):
    # the pair value is proved once per set: a table whose product has an
    # entry that no zero pair attains passes every point check, so the
    # sampler must refuse it before it draws or solves anything
    import tropmarg.marginal as marginal

    def solve(*args):
        raise RuntimeError("solved a pair of a refused table")

    monkeypatch.setattr(marginal, "_solve_pair", solve)
    rng = random.Random(9)
    a, b, c = (_rand_square(MIN, rng) for _ in range(3))
    if shape == "sandwich":  # identity ends: E = D, every diagonal pair a zero pair
        word, table = sandwich_word(a), two_sided_residual(a)
    else:
        word, table = chain_word((a, b, c)), five_factor_residual(a, b, c)
    # every a_0p + e_pq + c_q1 is at least d_01, so one below is attained nowhere
    rows = [list(row) for row in table.product.rows]
    rows[0][1] -= 1
    broken = BoundTable(make_matrix(MIN, rows), table.outer, table.chain)
    state = rng.getstate()
    with pytest.raises(SelfCheckError, match="attained at no zero pair"):
        _sample_pairs(word, lambda *constants: broken, 3, -8, 8, rng)
    if rng.getstate() != state:
        pytest.fail("the refused table advanced the generator")


@pytest.mark.parametrize("slots", [1, 3])
def test_a_chain_product_entry_no_zero_index_attains_fails_before_any_draw(monkeypatch, slots):
    # the chain value is proved once per set, as the pair value is: a table
    # whose product has an entry that no zero index attains would pass every
    # draw's Z >= E check, so the sampler must refuse it before it draws or
    # repairs anything
    import tropmarg.marginal as marginal

    def repair(*args):
        raise RuntimeError("repaired a draw of a refused table")

    rng = random.Random(9)
    chain = [_rand_square(MIN, rng) for _ in range(slots + 1)]
    table = n_factor_residual(chain)
    # every a_0p + e_pq + c_q1 is at least d_01, so one below is attained nowhere
    rows = [list(row) for row in table.product.rows]
    rows[0][1] -= 1
    broken = BoundTable(make_matrix(MIN, rows), table.outer, table.chain)
    monkeypatch.setattr(marginal, "_repair_chain", repair)
    monkeypatch.setattr(marginal, "n_factor_residual", lambda chain: broken)
    state = rng.getstate()
    with pytest.raises(SelfCheckError, match="attained at no zero index"):
        sample_n_factor_marginal(chain, 3, -8, 8, rng)
    if rng.getstate() != state:
        pytest.fail("the refused table advanced the generator")


# shape -> (constants, the min-plus int table of the lowered constants)
_COVER_TABLES = {
    "right": (1, lambda m: BoundTable(m, residual_right(m), (m, None))),
    "left": (1, lambda m: BoundTable(m, residual_left(m), (None, m))),
    "sandwich": (1, two_sided_residual),
    "five_factor": (3, five_factor_residual),
    "chain-3": (4, lambda *cs: n_factor_residual(cs)),
    "chain-4": (5, lambda *cs: n_factor_residual(cs)),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(_COVER_TABLES)),
    st.sampled_from([MIN, MAX]),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_residual_tables_cover_their_product_at_zero_pairs(shape, kind, k, jones, seed):
    # the fact the pair and chain samplers check once per set holds on every
    # table they build, in the min-plus int coordinates they build it in; a
    # one-slot table's zero indices are x*'s zero diagonal
    rng = random.Random(seed)
    count, residual = _COVER_TABLES[shape]
    _, lowered, _ = _into_min_plus([anchor(kind, k, rng, jones) for _ in range(count)])
    table = residual(*lowered)
    assert table.covers(table.zero_pairs)
    if shape in ("right", "left"):
        assert table.zero_pairs == {(p,) for p in range(k)}


@pytest.mark.parametrize("name", _SAMPLER_NAMES)
@pytest.mark.parametrize("kind", [MIN, MAX])
def test_samplers_evaluate_no_word(evaluations, name, kind):
    rng = random.Random(3)
    a, b, c = (_rand_square(kind, rng) for _ in range(3))
    if name == "right":
        s = sample_right_marginal(a, 3, 20 if kind is MIN else -20, rng)
    elif name == "left":
        s = sample_left_marginal(a, 3, 20 if kind is MIN else -20, rng)
    elif name == "additive":
        s = sample_additive_marginal(a, 3, 5, rng)
    elif name == "sandwich":
        s = sample_sandwich_marginal(a, 3, -8, 8, rng)
    elif name == "five_factor":
        s = sample_five_factor_marginal(a, b, c, 3, -8, 8, rng)
    else:
        s = sample_n_factor_marginal([a, b, c], 3, -8, 8, rng)
    assert len(s) > 1
    assert evaluations == []


def _neutral_substitution(word):
    e, o = identity(word.kind, word.dim), neutral_matrix(word.kind, word.dim)
    return (e,) * word.n_box + (o,) * word.n_circle


# Every word shape, both semirings, int and Fraction constants, some with the
# semiring's infinity: the neutral value is formed from the constants alone,
# and must equal the word evaluated at identities and all-infinity matrices.
_WORD_SHAPES = {
    "right": (1, lambda cs: right_word(cs[0])),
    "left": (1, lambda cs: left_word(cs[0])),
    "sandwich": (1, lambda cs: sandwich_word(cs[0])),
    "five-factor": (3, chain_word),
    "chain-2": (2, chain_word),
    "chain-4": (4, chain_word),
    "additive": (1, lambda cs: additive_word(cs[0])),
    "mixed": (1, lambda cs: WordTemplate(
        cs[0].kind, cs[0].dim, cs,
        ((Box(1), Const(0), Box(0)), (Circle(1),), (Const(0),), (Circle(0),)))),
    "boxes-only": (1, lambda cs: WordTemplate(
        cs[0].kind, cs[0].dim, cs, ((Box(0), Box(1)), (Const(0), Box(2))))),
    "circles-only": (1, lambda cs: WordTemplate(
        cs[0].kind, cs[0].dim, cs, ((Circle(0),), (Circle(1),)))),
}


@st.composite
def _shaped_words(draw):
    kind = draw(st.sampled_from([MIN, MAX]))
    n = draw(st.integers(1, 4))
    entry = st.one_of(
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-20, 20), st.integers(1, 4)),
        st.just(POS_INF if kind is MIN else NEG_INF),
    )
    if not draw(st.booleans()):
        entry = st.integers(-9, 9)
    count, build = _WORD_SHAPES[draw(st.sampled_from(sorted(_WORD_SHAPES)))]
    constants = [
        make_matrix(kind, [[draw(entry) for _ in range(n)] for _ in range(n)])
        for _ in range(count)
    ]
    return build(constants)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_shaped_words())
def test_neutral_value_equals_the_neutral_substitution(word):
    want = word.evaluate(list(_neutral_substitution(word)))
    got = word.neutral_value()
    assert got == want
    assert (got.has_inf, got.all_int, got.den) == (want.has_inf, want.all_int, want.den)


@pytest.mark.parametrize("kind", [MIN, MAX])
def test_decoding_a_raw_set_evaluates_each_tuple_once(evaluations, kind):
    rng = random.Random(9)
    a = _rand_square(kind, rng)
    data = encode_marginal_set(sample_sandwich_marginal(a, 4, -8, 8, rng))
    del evaluations[:]
    s = decode_marginal_set(data)
    assert len(s) == 4
    assert Counter(evaluations) == Counter(s.tuples)


def _box_file(word, box) -> bytes:
    return to_canonical_bytes(
        {"type": "marginal-set", "encoding": "interval", "word": json.loads(encode_word(word)), "box": box}
    )


def _box_members(kind, box):
    """The box's members in the decoder's documented order (row-major cells,
    last cell fastest), each built through the walk."""
    cells = [range(c, c + 1) if isinstance(c, int) else range(c[0], c[1] + 1) for row in box for c in row]
    n = len(box)
    return [
        (make_matrix(kind, [combo[i * n:(i + 1) * n] for i in range(n)]),)
        for combo in itertools.product(*cells)
    ]


def _box_cells(box):
    """The wire box form as box_marginal_set's (lo, hi) cells."""
    return [[(c, c) if isinstance(c, int) else tuple(c) for c in row] for row in box]


def test_decoding_a_box_evaluates_its_two_corners(evaluations):
    word = additive_word(make_matrix(MIN, [[0, 1, 2], [-1, 0, 1], [3, 2, 0]]))
    box = [[[0, 3], [1, 4], 5], [[0, 3], 0, [1, 4]], [3, [2, 5], [0, 3]]]
    s = decode_marginal_set(_box_file(word, box))
    members = _box_members(MIN, box)
    assert len(s) == len(members) == 4096
    assert s.tuples == tuple(members)
    assert Counter(evaluations) == Counter([members[0], members[-1]])
    # the decoder's proof is marginal's own: called directly, it lists the
    # same members and evaluates the same two corners
    del evaluations[:]
    assert box_marginal_set(word, _box_cells(box)).tuples == s.tuples
    assert Counter(evaluations) == Counter([members[0], members[-1]])


@pytest.mark.parametrize(
    "word,box",
    [
        # lo corner fails: x00 = 0 lies below A's 1
        (additive_word(make_matrix(MIN, [[1, 0], [0, 0]])), [[[0, 2], [0, 1]], [0, [0, 1]]]),
        # hi corner fails: A⊗X = A needs a zero in each column of X
        (right_word(make_matrix(MIN, [[0, 0], [0, 0]])), [[[0, 1], 0], [[0, 1], [0, 1]]]),
        # over max-plus: X ⊕ A = A needs X <= A
        (additive_word(make_matrix(MAX, [[1, 0], [0, 0]])), [[[0, 2], [-1, 1]], [0, -1]]),
    ],
)
def test_box_with_a_failing_corner_reports_every_bad_index(word, box):
    members = _box_members(word.kind, box)
    want = [k for k, t in enumerate(members) if not verify_marginal(word, t)]
    assert 0 < len(want) < len(members)
    for build in (
        lambda: decode_marginal_set(_box_file(word, box)),
        lambda: box_marginal_set(word, _box_cells(box)),
    ):
        with pytest.raises(MarginalVerificationError) as caught:
            build()
        assert caught.value.indices == tuple(want)


def test_box_marginal_set_refuses_a_misfit_box():
    a = make_matrix(MIN, [[0, 0], [0, 0]])
    cells = [[(0, 1), (0, 0)], [(0, 0), (0, 1)]]
    assert len(box_marginal_set(additive_word(a), cells)) == 4
    for word, misfit in (
        (sandwich_word(a), cells),  # two slots
        (additive_word(a), cells[:1]),  # one row short
        (additive_word(a), [row + [(0, 0)] for row in cells]),  # a cell too many per row
    ):
        with pytest.raises(ValueError, match="needs 2x2 cells"):
            box_marginal_set(word, misfit)


# --------------------------------------------------------------------------
# The stored word shape


def _mixed_word():
    return WordTemplate(
        MIN, 2, (BIL_A,), ((Box(1), Const(0), Box(0)), (Circle(1),), (Const(0),), (Circle(0),))
    )


_SHAPE_WORDS = {
    "right": lambda: right_word(DEF3_A),
    "left": lambda: left_word(DEF3_A),
    "sandwich": lambda: sandwich_word(BIL_A),
    "five-factor": lambda: chain_word((FF_A, FF_B, FF_C)),
    "chain-2": lambda: chain_word([FF_A, FF_B]),
    "chain-4": lambda: chain_word([FF_A, FF_B, FF_C, FF_A]),
    "additive": lambda: additive_word(DEF3_A),
    "mixed": _mixed_word,
}


def _walked_shape(word):
    atoms = [a for s in word.summands for a in s]
    n_box = sum(isinstance(a, Box) for a in atoms)
    n_circle = sum(isinstance(a, Circle) for a in atoms)
    return n_box, n_circle, n_box + n_circle


@pytest.mark.parametrize("name", sorted(_SHAPE_WORDS))
def test_stored_word_shape_matches_the_summands(name):
    word = _SHAPE_WORDS[name]()
    for w in (word, decode_word(encode_word(word)), copy.deepcopy(word)):
        assert (w.n_box, w.n_circle, w.arity) == _walked_shape(word)
    # replace rebuilds the counts from the new summands
    swapped = dataclasses.replace(word, summands=((Const(0),), (Circle(0),)))
    assert (swapped.n_box, swapped.n_circle, swapped.arity) == (0, 1, 1)
    same = dataclasses.replace(word)
    assert (same.n_box, same.n_circle, same.arity) == _walked_shape(word)


@pytest.mark.parametrize("name", sorted(_SHAPE_WORDS))
def test_stored_word_shape_is_not_part_of_the_value(name):
    word, other = _SHAPE_WORDS[name](), _SHAPE_WORDS[name]()
    object.__setattr__(other, "n_box", word.n_box + 1)
    object.__setattr__(other, "n_circle", word.n_circle + 2)
    assert other == word and hash(other) == hash(word)
    assert repr(other) == repr(word) and "n_box" not in repr(word)
    assert encode_word(other) == encode_word(word)


def test_evaluate_stays_in_the_class_dict():
    # the benchmark's tracer wraps WordTemplate.evaluate by name
    assert "evaluate" in vars(WordTemplate)


def test_self_check_tests_pass_under_python_dash_o():
    # these tests raise through pytest.raises, not assert, so they still
    # check something when -O strips the asserts
    import os
    import subprocess
    import sys

    import tropmarg

    here = os.path.abspath(__file__)
    src = os.path.dirname(os.path.dirname(tropmarg.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    nodes = [
        f"{here}::{name}"
        for name in (
            "test_marginal_set_verifies_at_construction",
            "test_wrong_product_raises_self_check_error",
            "test_pair_word_check_reads_the_pair",
            "test_a_product_entry_no_zero_pair_attains_fails_before_any_draw",
            "test_a_chain_product_entry_no_zero_index_attains_fails_before_any_draw",
            "test_chain_word_check_reads_the_tuple",
        )
    ]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes],
        cwd=os.path.dirname(os.path.dirname(here)),
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
