"""End-to-end acceptance battery: one test per shipped claim.

Every check prints a single pass/fail line, so running this file directly
(or under ``pytest -s``) yields one line per criterion.  Expected values are
spelled out inline as this file's own literals.  The scripted-replay inputs
are too large to duplicate and come from tropmarg.fixtures, but all of their
asserted outputs are pinned here, so drift in those bundles still fails the
gate.  All assertions are exact equality; the only timing assertion is the
sixty-second budget on the property suites.
"""

import io
import itertools
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from tropmarg.cli import main as cli_main
from tropmarg.constraints import (
    ConstraintSystem,
    Infeasible,
    VarId,
    solve_feasible_min,
)
from tropmarg.families import (
    CirculantFamily,
    JonesDeformFamily,
    LdpFamily,
    LowerSCirculantFamily,
    PolyFamily,
    UpperTCirculantFamily,
    commute_check,
    sample_family_member,
    sample_jones,
    sample_ldp,
)
from tropmarg.fixtures import builtin_params
from tropmarg.marginal import (
    additive_word,
    chain_word,
    cover_check,
    five_factor_residual,
    left_word,
    make_marginal_set,
    max_possible_matrix,
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
    make_matrix,
    make_poly,
    mat_add,
    mat_mul,
    mat_prod,
    poly_eval,
)
from tropmarg.protocols import (
    NoDecomposition,
    ProtocolParams,
    attack_decomposition,
    power_basis,
    run_protocol_multiblock,
    run_protocol_one_sided,
    run_protocol_sandwich,
    run_sidelnikov,
)
from tropmarg.semiring import NEG_INF, POS_INF, SemiringKind
from tropmarg.wire import (
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
)

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS


def _mm(rows):
    return make_matrix(MIN, rows)


def _mx(rows):
    return make_matrix(MAX, rows)


@contextmanager
def _criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


# --------------------------------------------------------------------------
# 1. Principal solution and cap goldens


def test_criterion_01_principal_solution_and_cap_goldens():
    with _criterion("criterion 01 principal solution and cap goldens"):
        a = _mm([[0, 85, -6], [-72, 53, -97], [-72, 52, -69]])
        star = residual_right(a)
        assert star == _mm([[0, 125, 3], [-85, 0, -91], [25, 150, 0]])
        outer = max_possible_matrix(star, 100)
        assert outer == _mm([[0, 125, 100], [100, 0, 100], [100, 150, 0]])


# --------------------------------------------------------------------------
# 2. Recorded marginal memberships


def test_criterion_02_recorded_marginal_memberships():
    with _criterion("criterion 02 recorded marginal memberships"):
        a = _mm([[3, 7, 4], [5, 12, 7], [6, 5, 11]])
        c1 = _mm([[0, 7, 5], [1, 0, 6], [-1, 5, 0]])
        c2 = _mm([[0, 7, 5], [1, 0, 6], [0, 5, 0]])
        assert mat_mul(a, c1) == a
        assert mat_mul(a, c2) == a
        x_add = _mm([[5, 12, 10], [25, 12, 8], [59, 23, 12]])
        assert mat_add(a, x_add) == a
        res_a = _mm([[0, 85, -6], [-72, 53, -97], [-72, 52, -69]])
        for rows in (
            [[0, 125, 65], [29, 0, -51], [61, 150, 0]],
            [[0, 125, 14], [29, 0, -91], [88, 150, 0]],
            [[0, 125, 76], [20, 0, -68], [71, 150, 0]],
        ):
            assert mat_mul(res_a, _mm(rows)) == res_a


# --------------------------------------------------------------------------
# 3. Pair-system worked instance


def test_criterion_03_pair_system_worked_instance():
    with _criterion("criterion 03 pair-system worked instance"):
        a = _mm([[3, 2], [1, 5]])
        assert render_two_sided_constraints(a) == (
            "x11 + y11 = 0",
            "x11 + y12 >= -1",
            "x11 + y21 >= 1",
            "x11 + y22 = 0",
            "x12 + y11 >= 2",
            "x12 + y12 >= 1",
            "x12 + y21 >= -2",
            "x12 + y22 >= -3",
            "x21 + y11 >= -2",
            "x21 + y12 >= 2",
            "x21 + y21 >= -1",
            "x21 + y22 >= 3",
            "x22 + y11 = 0",
            "x22 + y12 >= 4",
            "x22 + y21 >= -4",
            "x22 + y22 = 0",
        )
        x = _mm([[3, 9], [7, 3]])
        y = _mm([[-3, 4], [0, -3]])
        table = two_sided_residual(a)
        for i, p, q, j in itertools.product(range(2), repeat=4):
            got = x.rows[i][p] + y.rows[q][j]
            assert got >= table.bound(i, p, q, j)
            if i == p and q == j:
                assert got == 0
        assert mat_prod(MIN, 2, [x, a, y]) == a
        assert mat_mul(x, a) != a
        assert mat_mul(a, y) != a


# --------------------------------------------------------------------------
# 4. Five-factor worked instance


def test_criterion_04_five_factor_worked_instance():
    with _criterion("criterion 04 five-factor worked instance"):
        a = _mm([[-4, 6, 2], [-2, -3, 10], [-2, -9, -5]])
        b = _mm([[-4, -10, -3], [2, -2, 8], [4, -1, 6]])
        c = _mm([[-9, 9, -2], [5, -2, -8], [3, 3, 8]])
        table = five_factor_residual(a, b, c)
        assert table.block_matrix() == (
            (0, -6, -11, -6, -12, -17, -8, -14, -19),
            (6, 0, -5, -2, -8, -13, -3, -9, -14),
            (-1, -7, -12, -12, -18, -23, -10, -16, -21),
            (6, 1, -4, 0, -5, -10, -2, -7, -12),
            (12, 7, 2, 4, -1, -6, 3, -2, -7),
            (5, 0, -5, -6, -11, -16, -4, -9, -14),
            (2, -3, -8, -4, -9, -14, -6, -11, -16),
            (8, 3, -2, 0, -5, -10, -1, -6, -11),
            (1, -4, -9, -10, -15, -20, -8, -13, -18),
        )
        assert {(p + 1, r + 1) for p, r in table.zero_pairs} == {(1, 1), (1, 2), (2, 1)}
        assert {i + 1 for i in table.px} == {1, 2}
        assert {i + 1 for i in table.py} == {1, 2}
        x = _mm([[-10, -4, -1], [1, -10, 0], [6, -1, -2]])
        y = _mm([[10, 10, 3], [16, 10, 5], [9, 3, 0]])
        d = mat_prod(MIN, 3, [a, b, c])
        assert d == _mm([[-17, -16, -22], [-15, -14, -20], [-16, -14, -20]])
        assert mat_prod(MIN, 3, [a, x, b, y, c]) == d
        assert mat_mul(a, x) != a
        assert mat_mul(x, b) != b
        assert mat_mul(b, y) != b
        assert mat_mul(y, c) != c
        assert mat_prod(MIN, 3, [a, x, b]) != mat_mul(a, b)
        assert mat_prod(MIN, 3, [x, b, y]) != b
        assert mat_prod(MIN, 3, [b, y, c]) != mat_mul(b, c)


# --------------------------------------------------------------------------
# 5. Recorded protocol keys


def test_criterion_05_recorded_protocol_keys():
    with _criterion("criterion 05 recorded protocol keys"):
        params = builtin_params("sandwich4x4")
        t = run_protocol_sandwich(params, random.Random(params.seed))
        assert t.message("u") == _mm(
            [[83, 95, 45, 64], [95, 107, 57, 76], [81, 93, 43, 62], [78, 90, 40, 59]]
        )
        assert t.message("v") == _mm(
            [[113, 110, 81, 94], [128, 125, 96, 109], [114, 111, 82, 95], [113, 110, 81, 94]]
        )
        k = _mm(
            [[202, 208, 164, 183], [217, 223, 179, 198], [203, 209, 165, 184], [200, 206, 162, 181]]
        )
        assert t.key_a == k
        assert t.key_b == k
        params2 = builtin_params("two-block-3x3")
        t2 = run_protocol_multiblock(params2, random.Random(params2.seed))
        k2 = _mm([[-308, -310, -315], [-305, -320, -278], [-330, -332, -290]])
        assert t2.key_a == k2
        assert t2.key_b == k2


# --------------------------------------------------------------------------
# 6. Recomputed secrets and key equality for the recorded one-sided run
#    (the source run's final key listings disagree with each other, so only
#    recomputed quantities are pinned; see the decisions ledger)


def test_criterion_06_recomputed_secrets_and_key_equality():
    with _criterion("criterion 06 recomputed secrets and key equality"):
        a = _mm([[54, 15, 33], [59, 87, 53], [9, 63, 80]])
        b = _mm([[50, 11, 14], [16, 29, 33], [27, 86, 96]])
        p1 = poly_eval(make_poly(MIN, (-69, -97, 60)), a)
        q1 = poly_eval(make_poly(MIN, (8, -93, 69)), b)
        assert p1 == _mm([[-69, -82, -64], [-38, -69, -44], [-88, -34, -69]])
        assert q1 == _mm([[-43, -82, -79], [-77, -64, -60], [-66, -7, 3]])
        params = builtin_params("one-sided-3x3")
        t = run_protocol_one_sided(params, random.Random(params.seed))
        assert t.key_a == t.key_b


# --------------------------------------------------------------------------
# 7. Property suites: sampler soundness, key agreement, commutation


def _random_matrix(kind, dim, lo, hi, rng):
    return make_matrix(
        kind, [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)]
    )


def _suite_samplers():
    """Verify every output of all six samplers; returns the tuple count.

    Samplers deduplicate, so a call can emit fewer tuples than requested;
    the rep count leaves slack above the five-hundred floor.
    """
    checked = 0
    for rep in range(50):
        kind = MIN if rep % 2 == 0 else MAX
        rng = random.Random(7000 + rep)
        a = _random_matrix(kind, 3, -9, 9, rng)
        b = _random_matrix(kind, 3, -9, 9, rng)
        c = _random_matrix(kind, 3, -9, 9, rng)
        sets = [
            sample_right_marginal(a, 5, 60, rng),
            sample_left_marginal(a, 5, 60, rng),
            sample_additive_marginal(a, 4, 6, rng),
            sample_sandwich_marginal(a, 3, -8, 8, rng),
            sample_five_factor_marginal(a, b, c, 2, -8, 8, rng),
            sample_n_factor_marginal([a, b, c, mat_mul(a, b)], 2, -8, 8, rng),
        ]
        for s in sets:
            assert len(s.tuples) >= 1
            for t in s.tuples:
                assert verify_marginal(s.word, t)
                checked += 1
    return checked


def _spec_pair(tag, kind, rng):
    """Two independent specs of one family type (left and right side)."""
    if tag == "poly":
        return tuple(
            PolyFamily(_random_matrix(kind, 3, -9, 9, rng), 2, -30, 30)
            for _ in range(2)
        )
    if tag == "circulant":
        return (CirculantFamily(kind, 3, -9, 9), CirculantFamily(kind, 3, -9, 9))
    if tag == "upper-t":
        return tuple(
            UpperTCirculantFamily(kind, 3, rng.randint(-9, 9), -9, 9)
            for _ in range(2)
        )
    if tag == "lower-s":
        return tuple(
            LowerSCirculantFamily(kind, 3, rng.randint(-9, 9), -9, 9)
            for _ in range(2)
        )
    if tag == "jones":
        return tuple(
            JonesDeformFamily(sample_jones(3, -9, 9, rng)) for _ in range(2)
        )
    if tag == "ldp":
        return tuple(
            LdpFamily(3, rng.randint(0, 40), -rng.randint(0, 9)) for _ in range(2)
        )
    raise ValueError(tag)


_FAMILY_TAGS = ("poly", "circulant", "upper-t", "lower-s", "jones", "ldp")

_RUNNERS = (
    ("sidelnikov", run_sidelnikov, 1),
    ("one-sided", run_protocol_one_sided, 1),
    ("sandwich", run_protocol_sandwich, 1),
    ("multiblock", run_protocol_multiblock, 2),
)


def _tag_kind(tag, alt):
    if tag == "jones":
        return MAX
    if tag == "ldp":
        return MIN
    return MIN if alt % 2 == 0 else MAX


def _suite_key_agreement():
    """Run every protocol against every family type; returns the run count."""
    runs = 0
    for name, runner, blocks in _RUNNERS:
        for tag in _FAMILY_TAGS:
            for i in range(21):
                kind = _tag_kind(tag, i)
                rng = random.Random(9000 + 100 * runs + i)
                lefts, rights = [], []
                for _ in range(blocks):
                    left, right = _spec_pair(tag, kind, rng)
                    lefts.append(left)
                    rights.append(right)
                params = ProtocolParams(
                    kind=kind,
                    dim=3,
                    publics=tuple(
                        _random_matrix(kind, 3, -9, 9, rng) for _ in range(blocks)
                    ),
                    left_families=tuple(lefts),
                    right_families=tuple(rights),
                    n_tuples=2,
                    l=40,
                    l1=-6,
                    l2=6,
                    seed=i,
                )
                t = runner(params, rng)
                assert t.agreed, f"{name}/{tag} run {i} keys disagree"
                runs += 1
    return runs


def _suite_commutation():
    """Same-spec pairs always commute; returns the pair count."""
    pairs = 0
    for tag in _FAMILY_TAGS:
        kinds = (MAX,) if tag == "jones" else (MIN,) if tag == "ldp" else (MIN, MAX)
        for kind in kinds:
            per_kind = 45 if len(kinds) == 2 else 90
            for i in range(per_kind):
                rng = random.Random(11000 + 31 * pairs + i)
                spec = _spec_pair(tag, kind, rng)[0]
                m1 = sample_family_member(spec, rng)
                m2 = sample_family_member(spec, rng)
                assert commute_check(m1, m2), f"{tag} members do not commute"
                pairs += 1
    # diagonal-constant matrices commute even across parameter choices
    rng = random.Random(12000)
    for _ in range(40):
        m1 = sample_ldp(rng.randint(0, 30), -rng.randint(0, 9), 3, rng)
        m2 = sample_ldp(rng.randint(0, 30), -rng.randint(0, 9), 3, rng)
        assert commute_check(m1, m2)
        pairs += 1
    # polynomial values commute with their own base matrix
    for i in range(30):
        rng = random.Random(13000 + i)
        spec = _spec_pair("poly", MIN if i % 2 == 0 else MAX, rng)[0]
        assert commute_check(sample_family_member(spec, rng), spec.base)
        pairs += 1
    return pairs


def test_criterion_07_property_suites_under_budget():
    with _criterion("criterion 07 property suites under budget"):
        start = time.perf_counter()
        n_tuples = _suite_samplers()
        n_runs = _suite_key_agreement()
        n_pairs = _suite_commutation()
        elapsed = time.perf_counter() - start
        assert n_tuples >= 500, n_tuples
        assert n_runs >= 500, n_runs
        assert n_pairs >= 500, n_pairs
        assert elapsed < 60.0, f"property suites took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 8. Brute-force equivalence at desk scale (2x2, entries in [-5, 5])


def _grid_instances():
    """Exhaustive sweep of a 4x4x4x4 offset grid around the principal
    solution: inside the box, cover_check must equal the direct product
    equality; any point past the box bound must fail to solve."""
    for case in range(160):
        kind = MIN if case % 2 == 0 else MAX
        side = "right" if case % 4 < 2 else "left"
        rng = random.Random(20000 + case)
        a = _random_matrix(kind, 2, -5, 5, rng)
        star = residual_right(a) if side == "right" else residual_left(a)
        sign = 1 if kind is MIN else -1

        def solves(x):
            if side == "right":
                return mat_mul(a, x) == a
            return mat_mul(x, a) == a

        assert solves(star)
        assert cover_check(a, star, side)
        for off in itertools.product(range(-1, 3), repeat=4):
            rows = [
                [star.rows[0][0] + sign * off[0], star.rows[0][1] + sign * off[1]],
                [star.rows[1][0] + sign * off[2], star.rows[1][1] + sign * off[3]],
            ]
            x = make_matrix(kind, rows)
            if min(off) < 0:
                assert not solves(x), "a solution escaped the principal bound"
            else:
                assert cover_check(a, x, side) == solves(x)


def _random_system(rng, nx, ny, n_cons):
    """A feasibility instance kept in two forms: the builder under test and
    a plain record used by the independent checks."""
    xs = [VarId("x", 0, j) for j in range(nx)]
    ys = [VarId("y", 0, j) for j in range(ny)]
    sys_ = ConstraintSystem()
    spec = []
    for _ in range(n_cons):
        op = "eq" if rng.random() < 0.25 else "ge"
        xi, yi = rng.randrange(nx), rng.randrange(ny)
        c = rng.randint(-5, 5)
        spec.append((op, xi, yi, c))
        if op == "eq":
            sys_.add_sum_eq(xs[xi], ys[yi], c)
        else:
            sys_.add_sum_ge(xs[xi], ys[yi], c)
    lows = {}
    for v in xs + ys:
        b = rng.randint(-5, 5)
        lows[v] = b
        sys_.set_lower(v, b)
    return sys_, spec, lows, xs, ys


def _brute_feasible(spec, lows, xs, ys):
    """Complete search: any feasible instance here has an integer witness
    with every value in [-5(nx+ny), 5(nx+ny)], since the canonical solution
    is a sum of at most nx+ny constraint constants of magnitude <= 5."""
    bound = 5 * (len(xs) + len(ys))
    names = xs + ys
    ranges = [range(max(lows[v], -bound), bound + 1) for v in names]
    for point in itertools.product(*ranges):
        val = dict(zip(names, point))
        if all(
            (val[xs[xi]] + val[ys[yi]] == c)
            if op == "eq"
            else (val[xs[xi]] + val[ys[yi]] >= c)
            for op, xi, yi, c in spec
        ):
            return True
    return False


def _reference_edges(spec, lows, xs, ys):
    """The difference-graph image of the instance, rebuilt from the plain
    record so certificates are validated without trusting the builder."""
    edges = set()
    for v in xs + ys:
        b = lows[v]
        if v.tag == "y":
            edges.add(("origin", ("z", v), -b))
        else:
            edges.add((("x", v), "origin", -b))
    for op, xi, yi, c in spec:
        edges.add((("x", xs[xi]), ("z", ys[yi]), -c))
        if op == "eq":
            edges.add(((("z", ys[yi])), ("x", xs[xi]), c))
    return edges


def _certificate_ok(cert, edges):
    if not cert.cycle or cert.total() >= 0:
        return False
    cycle = tuple(cert.cycle)
    for e, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        if (e.tail, e.head, e.weight) not in edges:
            return False
        if e.head != nxt.tail:
            return False
    return True


def _fw_feasible(edges):
    nodes = sorted({e[0] for e in edges} | {e[1] for e in edges}, key=str)
    idx = {n: i for i, n in enumerate(nodes)}
    big = 10**9
    n = len(nodes)
    dist = [[big] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for tail, head, w in edges:
        ti, hi = idx[tail], idx[head]
        if w < dist[ti][hi]:
            dist[ti][hi] = w
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik >= big:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return all(dist[i][i] >= 0 for i in range(n))


def _solver_instances():
    sizes = [(1, 1)] * 200 + [(2, 1)] * 40 + [(1, 2)] * 40
    for case, (nx, ny) in enumerate(sizes):
        rng = random.Random(30000 + case)
        sys_, spec, lows, xs, ys = _random_system(rng, nx, ny, rng.randint(1, 5))
        verdict = solve_feasible_min(sys_)
        edges = _reference_edges(spec, lows, xs, ys)
        if isinstance(verdict, Infeasible):
            assert not _brute_feasible(spec, lows, xs, ys)
            assert _certificate_ok(verdict, edges)
        else:
            assert sys_.check_assignment(verdict)
            assert _brute_feasible(spec, lows, xs, ys)
        assert _fw_feasible(edges) == (not isinstance(verdict, Infeasible))
    # wider instances, cross-checked against the shortest-path oracle only
    for case in range(400):
        rng = random.Random(31000 + case)
        nx, ny = rng.randint(1, 3), rng.randint(1, 3)
        sys_, spec, lows, xs, ys = _random_system(rng, nx, ny, rng.randint(1, 7))
        verdict = solve_feasible_min(sys_)
        edges = _reference_edges(spec, lows, xs, ys)
        assert _fw_feasible(edges) == (not isinstance(verdict, Infeasible))
        if isinstance(verdict, Infeasible):
            assert _certificate_ok(verdict, edges)
        else:
            assert sys_.check_assignment(verdict)


def test_criterion_08_brute_force_equivalence_at_desk_scale():
    with _criterion("criterion 08 brute-force equivalence at desk scale"):
        _grid_instances()
        _solver_instances()


# --------------------------------------------------------------------------
# 9. Attack demonstration


def _attack_params(seed):
    rng = random.Random(50000 + seed)
    a = _random_matrix(MIN, 3, -20, 20, rng)
    b = _random_matrix(MIN, 3, -20, 20, rng)
    w = _random_matrix(MIN, 3, -20, 20, rng)
    return ProtocolParams(
        kind=MIN,
        dim=3,
        publics=(w,),
        left_families=(PolyFamily(a, 3, -20, 20),),
        right_families=(PolyFamily(b, 3, -20, 20),),
        n_tuples=2,
        l=40,
        l1=-6,
        l2=6,
        seed=seed,
    )


def _attack_once(params, transcript):
    left = power_basis(params.left_families[0].base, 3)
    right = power_basis(params.right_families[0].base, 3)
    try:
        candidate, _ = attack_decomposition(
            params.publics[0],
            transcript.message("u"),
            transcript.message("v"),
            left,
            right,
        )
    except NoDecomposition:
        return "no-decomposition"
    return "recovered" if candidate == transcript.key_a else "missed"


def test_criterion_09_baseline_attack_recovery():
    with _criterion("criterion 09 baseline attack recovery"):
        for seed in range(50):
            params = _attack_params(seed)
            t = run_sidelnikov(params, random.Random(seed))
            assert _attack_once(params, t) == "recovered", f"seed {seed}"
        # Reported without a threshold: the same attack pointed at the
        # masked exchanges, whose published values need not decompose.
        for name, runner in (
            ("one-sided", run_protocol_one_sided),
            ("sandwich", run_protocol_sandwich),
        ):
            tally = {"recovered": 0, "missed": 0, "no-decomposition": 0}
            for seed in range(50):
                params = _attack_params(1000 + seed)
                t = runner(params, random.Random(seed))
                tally[_attack_once(params, t)] += 1
            print(f"  attack vs {name}: {tally}")


# --------------------------------------------------------------------------
# 10. Wire round trips, compression goldens, selftest


def _assert_bytes_stable(encode, decode, value):
    data = encode(value)
    assert encode(decode(data)) == data


def test_criterion_10_wire_round_trips_and_selftest():
    with _criterion("criterion 10 wire round trips and selftest"):
        box = [_mm([[2, b], [a, 5]]) for a in (4, 5) for b in (3, 4, 5, 6, 7)]
        box_set = make_marginal_set(additive_word(box[0]), box)
        obj = from_canonical_bytes(encode_marginal_set(box_set, encoding="interval"))
        assert obj["encoding"] == "interval"
        assert obj["box"] == [[2, [3, 7]], [[4, 5], 5]]
        back = decode_marginal_set(encode_marginal_set(box_set, encoding="interval"))
        assert set(back.tuples) == set(box_set.tuples)
        assert len(back.tuples) == 10

        chain = [
            _mm([[2, 3, 4], [4, 5, 1], [0, 8, 6]]),
            _mm([[2, 3, 7], [4, 5, 1], [0, 8, 6]]),
            _mm([[2, 3, 8], [4, 5, 2], [0, 8, 6]]),
        ]
        delta_set = make_marginal_set(additive_word(chain[0]), chain)
        obj = from_canonical_bytes(encode_marginal_set(delta_set, encoding="delta"))
        assert obj["encoding"] == "delta"
        assert obj["base"] == [[2, 3, 4], [4, 5, 1], [0, 8, 6]]
        assert obj["diffs"] == [[[[1, 3], 7]], [[[1, 3], 8], [[2, 3], 2]]]
        back = decode_marginal_set(encode_marginal_set(delta_set, encoding="delta"))
        assert back.tuples == delta_set.tuples

        m_inf = make_matrix(MIN, [[0, POS_INF], [Fraction(1, 2), -3]])
        m_neg = make_matrix(MAX, [[NEG_INF, 4], [0, Fraction(-7, 3)]])
        assert from_canonical_bytes(encode_matrix(m_inf))["rows"][0][1] == "inf"
        assert from_canonical_bytes(encode_matrix(m_neg))["rows"][0][0] == "-inf"
        for m in (m_inf, m_neg):
            _assert_bytes_stable(encode_matrix, decode_matrix, m)
            assert decode_matrix(encode_matrix(m)) == m

        a3 = _mm([[1, 2, 0], [4, -1, 3], [2, 2, 5]])
        for word in (
            right_word(a3),
            left_word(a3),
            sandwich_word(a3),
            additive_word(a3),
            chain_word([a3, a3, a3]),
        ):
            _assert_bytes_stable(encode_word, decode_word, word)
        raw_set = make_marginal_set(
            right_word(a3), [residual_right(a3)]
        )
        for encoding, s in (
            ("raw", raw_set),
            ("interval", box_set),
            ("delta", delta_set),
        ):
            data = encode_marginal_set(s, encoding=encoding)
            back = decode_marginal_set(data)
            assert encode_marginal_set(back, encoding=encoding) == data

        w2 = _mx([[1, 0], [2, 1]])
        spec_table = [
            (PolyFamily(a3, 2, -5, 5), MIN, 3, a3),
            (CirculantFamily(MIN, 3, -9, 9), MIN, 3, a3),
            (UpperTCirculantFamily(MIN, 3, 5, -9, 9), MIN, 3, a3),
            (LowerSCirculantFamily(MAX, 2, Fraction(7, 2), -9, 9), MAX, 2, w2),
            (JonesDeformFamily(_mx([[2, 1], [1, 3]])), MAX, 2, w2),
            (LdpFamily(3, 7, -2), MIN, 3, a3),
        ]
        for spec, kind, dim, w in spec_table:
            params = ProtocolParams(
                kind=kind,
                dim=dim,
                publics=(w,),
                left_families=(spec,),
                right_families=(spec,),
                seed=3,
            )
            _assert_bytes_stable(encode_params, decode_params, params)

        demo = builtin_params("attack-demo")
        t = run_sidelnikov(demo, random.Random(demo.seed))
        _assert_bytes_stable(encode_transcript, decode_transcript, t)
        assert decode_transcript(encode_transcript(t)).agreed
        sw = builtin_params("sandwich4x4")
        t2 = run_protocol_sandwich(sw, random.Random(sw.seed))
        _assert_bytes_stable(encode_transcript, decode_transcript, t2)

        report = {
            "protocol": "sidelnikov",
            "degree": 3,
            "kind": MIN,
            "decomposed": True,
            "match": True,
            "z": ((0, -2), (5, POS_INF)),
            "candidate": a3,
            "expected": a3,
        }
        _assert_bytes_stable(encode_report, decode_report, report)

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["selftest"])
        assert code == 0
        assert "14/14 checks passed" in buf.getvalue()


if __name__ == "__main__":
    import sys

    failed = 0
    for fn in (
        test_criterion_01_principal_solution_and_cap_goldens,
        test_criterion_02_recorded_marginal_memberships,
        test_criterion_03_pair_system_worked_instance,
        test_criterion_04_five_factor_worked_instance,
        test_criterion_05_recorded_protocol_keys,
        test_criterion_06_recomputed_secrets_and_key_equality,
        test_criterion_07_property_suites_under_budget,
        test_criterion_08_brute_force_equivalence_at_desk_scale,
        test_criterion_09_baseline_attack_recovery,
        test_criterion_10_wire_round_trips_and_selftest,
    ):
        try:
            fn()
        except BaseException as exc:
            failed += 1
            print(f"  {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
