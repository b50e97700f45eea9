import random
from dataclasses import replace

import pytest

import tropmarg.fixtures as fx
from tropmarg.families import (
    CirculantFamily,
    JonesDeformFamily,
    LdpFamily,
    PolyFamily,
    commute_check,
)
from tropmarg import protocols
from tropmarg.marginal import (
    MarginalSet,
    MarginalVerificationError,
    SamplerExhausted,
    verify_marginal,
)
from tropmarg.matrix import identity, make_matrix, mat_pow, mat_prod
from tropmarg.protocols import (
    NoDecomposition,
    ProtocolParams,
    ProtocolScript,
    attack_decomposition,
    power_basis,
    run_protocol_multiblock,
    run_protocol_one_sided,
    run_protocol_sandwich,
    run_sidelnikov,
    sample_finite_member,
)
from tropmarg.semiring import SemiringKind
from tropmarg.wire import encode_transcript

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS


def _poly_params(w, left_base, right_base, **kw):
    return ProtocolParams(
        kind=w.kind,
        dim=w.dim,
        publics=(w,),
        left_families=(PolyFamily(left_base, 3, -20, 20),),
        right_families=(PolyFamily(right_base, 3, -20, 20),),
        **kw,
    )


class TestParamsValidation:
    def test_needs_publics(self):
        with pytest.raises(ValueError):
            ProtocolParams(MIN, 3, (), (), ())

    def test_family_must_match_kind(self):
        bad = CirculantFamily(MAX, 3, -5, 5)
        with pytest.raises(ValueError):
            ProtocolParams(MIN, 3, (fx.OS_W,), (bad,), (bad,))

    def test_one_family_pair_per_block(self):
        fam = CirculantFamily(MIN, 3, -5, 5)
        with pytest.raises(ValueError):
            ProtocolParams(MIN, 3, (fx.OS_W, fx.OS_W), (fam,), (fam,))

    @pytest.mark.parametrize("kind,dim", [(MAX, 3), (MIN, 4)], ids=["kind", "dim"])
    def test_public_must_match_kind_and_dim(self, kind, dim):
        fam = CirculantFamily(MIN, 3, -5, 5)
        public = make_matrix(kind, [[0] * dim for _ in range(dim)])
        with pytest.raises(ValueError, match="public matrix does not match"):
            ProtocolParams(MIN, 3, (public,), (fam,), (fam,))

    def test_blocks_property(self):
        assert fx.builtin_params("two-block-3x3").blocks == 2
        assert fx.builtin_params("one-sided-3x3").blocks == 1


class TestScriptedReplays:
    def test_one_sided_recorded_run(self):
        params = fx.builtin_params("one-sided-3x3")
        t = run_protocol_one_sided(params, random.Random(params.seed))
        assert t.agreed
        for label, want in (
            ("M1", fx.OS_M1),
            ("N1", fx.OS_N1),
            ("M2", fx.OS_M2),
            ("N2", fx.OS_N2),
        ):
            assert tuple(x for (x,) in t.message(label).tuples) == want

    def test_sandwich_recorded_run(self):
        params = fx.builtin_params("sandwich4x4")
        t = run_protocol_sandwich(params, random.Random(params.seed))
        assert t.message("u") == fx.SW_U
        assert t.message("v") == fx.SW_V
        assert t.key_a == fx.SW_K and t.key_b == fx.SW_K

    def test_two_block_recorded_run(self):
        params = fx.builtin_params("two-block-3x3")
        t = run_protocol_multiblock(params, random.Random(params.seed))
        assert t.message("u") == (fx.TB_U1, fx.TB_U2)
        assert t.message("v") == (fx.TB_V1, fx.TB_V2)
        assert t.key_a == fx.TB_K and t.key_b == fx.TB_K
        set_labels = [m.label for m in t.messages if m.label not in ("u", "v")]
        assert set_labels == ["M11", "M12", "M13", "M21", "M22", "M23"]

    def test_public_params_strip_the_script(self):
        params = fx.builtin_params("sandwich4x4")
        t = run_protocol_sandwich(params, random.Random(params.seed))
        assert params.script is not None
        assert t.public_params().script is None

    def test_unknown_label(self):
        params = fx.builtin_params("sandwich4x4")
        t = run_protocol_sandwich(params, random.Random(params.seed))
        with pytest.raises(KeyError):
            t.message("M9")


class TestUnscriptedRuns:
    def test_baseline_exchange(self):
        params = _poly_params(fx.OS_W, fx.OS_A, fx.OS_B, seed=3)
        t = run_sidelnikov(params, random.Random(3))
        assert t.agreed
        assert [m.label for m in t.messages] == ["u", "v"]

    def test_one_sided_exchange(self):
        params = _poly_params(fx.OS_W, fx.OS_A, fx.OS_B, seed=4)
        t = run_protocol_one_sided(params, random.Random(4))
        assert t.agreed
        for label in ("M1", "N1", "M2", "N2"):
            s = t.message(label)
            for tup in s.tuples:
                assert verify_marginal(s.word, tup)

    def test_sandwich_exchange(self):
        params = _poly_params(fx.OS_W, fx.OS_A, fx.OS_B, seed=5, n_tuples=2)
        t = run_protocol_sandwich(params, random.Random(5))
        assert t.agreed

    def test_multiblock_rejects_single_block_runner_mismatch(self):
        params = fx.builtin_params("two-block-3x3")
        with pytest.raises(ValueError):
            run_sidelnikov(params, random.Random(0))

    @pytest.mark.parametrize(
        "runner,detail",
        [
            (run_sidelnikov, "baseline exchange uses a single public matrix"),
            (run_protocol_one_sided, "one-sided exchange uses a single public matrix"),
            (run_protocol_sandwich, "sandwich exchange uses a single public matrix"),
        ],
    )
    def test_single_block_runners_reject_two_block_params(self, runner, detail):
        params = replace(fx.builtin_params("two-block-3x3"), script=None)
        with pytest.raises(ValueError) as exc:
            runner(params, random.Random(0))
        assert str(exc.value) == detail

    def test_multiblock_three_blocks(self):
        fam = LdpFamily(3, 40, -7)
        w = make_matrix(MIN, [[4, -1, 3], [0, 2, -5], [6, 1, 0]])
        params = ProtocolParams(
            kind=MIN,
            dim=3,
            publics=(w, fx.OS_W, fx.OS_A),
            left_families=(fam,) * 3,
            right_families=(fam,) * 3,
            n_tuples=2,
            seed=9,
        )
        t = run_protocol_multiblock(params, random.Random(9))
        assert t.agreed
        assert len(t.message("u")) == 3

    def test_determinism(self):
        params = _poly_params(fx.OS_W, fx.OS_A, fx.OS_B, seed=6)
        t1 = run_protocol_one_sided(params, random.Random(6))
        t2 = run_protocol_one_sided(params, random.Random(6))
        assert t1.key_a == t2.key_a
        assert [m.payload for m in t1.messages] == [m.payload for m in t2.messages]

    def test_jones_sandwich_on_max_plus(self):
        fam = JonesDeformFamily(fx.JONES_BASE)
        w = make_matrix(MAX, [[1, -2], [0, 3]])
        params = ProtocolParams(
            kind=MAX,
            dim=2,
            publics=(w,),
            left_families=(fam,),
            right_families=(fam,),
            n_tuples=2,
            seed=8,
        )
        t = run_protocol_sandwich(params, random.Random(8))
        assert t.agreed


_RUNNERS = {
    "sidelnikov": run_sidelnikov,
    "one-sided": run_protocol_one_sided,
    "sandwich": run_protocol_sandwich,
    "multiblock": run_protocol_multiblock,
}

# protocol -> (blocks, the arity of each set one party publishes)
_SHAPES = {
    "sidelnikov": (1, ()),
    "one-sided": (1, (1, 1)),
    "sandwich": (1, (2,)),
    "multiblock": (2, (1, 2, 1)),
}

# commutes with none of the secrets _identity_script draws (asserted there)
_ODD = make_matrix(MIN, [[0, -50, 30], [-10, 0, 70], [20, -40, 0]])


def _identity_script(protocol, blocks, swap=None):
    """Both parties hold the same finite secrets and publish sets of
    identity tuples, which hold for any secret; swap = (side, block) puts
    _ODD in place of that one secret of Bob's."""
    rng = random.Random(2)
    left, right = PolyFamily(fx.OS_A, 3, -20, 20), PolyFamily(fx.OS_B, 3, -20, 20)
    ps = tuple(sample_finite_member(left, rng) for _ in range(blocks))
    qs = tuple(sample_finite_member(right, rng) for _ in range(blocks))
    bob = {"left": list(ps), "right": list(qs)}
    if swap is not None:
        side, i = swap
        assert not commute_check(_ODD, bob[side][i])
        bob[side][i] = _ODD
    e = identity(MIN, 3)
    sets = tuple(((e,) * arity,) for arity in _SHAPES[protocol][1])
    return ProtocolScript(
        alice_p=ps, alice_q=qs, bob_p=tuple(bob["left"]), bob_q=tuple(bob["right"]),
        alice_sets=sets, bob_sets=sets,
        alice_choices=(0,) * len(sets), bob_choices=(0,) * len(sets),
    )


def _script_params(protocol, script):
    blocks = _SHAPES[protocol][0]
    return ProtocolParams(
        kind=MIN,
        dim=3,
        publics=(fx.OS_W,) * blocks,
        left_families=(PolyFamily(fx.OS_A, 3, -20, 20),) * blocks,
        right_families=(PolyFamily(fx.OS_B, 3, -20, 20),) * blocks,
        script=script,
    )


class TestScriptChecks:
    @pytest.mark.parametrize("protocol", sorted(_RUNNERS))
    def test_identity_script_agrees(self, protocol):
        script = _identity_script(protocol, _SHAPES[protocol][0])
        params = _script_params(protocol, script)
        assert _RUNNERS[protocol](params, random.Random(0)).agreed

    @pytest.mark.parametrize(
        "protocol,swap,detail",
        [
            ("sidelnikov", ("left", 0), "left"),
            ("sidelnikov", ("right", 0), "right"),
            ("one-sided", ("left", 0), "left"),
            ("one-sided", ("right", 0), "right"),
            ("sandwich", ("left", 0), "left"),
            ("sandwich", ("right", 0), "right"),
            ("multiblock", ("left", 0), "left block 1"),
            ("multiblock", ("left", 1), "left block 2"),
            ("multiblock", ("right", 1), "right block 2"),
        ],
    )
    def test_non_commuting_secret_is_named(self, protocol, swap, detail):
        script = _identity_script(protocol, _SHAPES[protocol][0], swap)
        params = _script_params(protocol, script)
        with pytest.raises(ValueError) as exc:
            _RUNNERS[protocol](params, random.Random(0))
        assert str(exc.value) == f"{detail} secrets do not commute; family spec is broken"

    @pytest.mark.parametrize("protocol", sorted(_RUNNERS))
    def test_script_block_count_must_match(self, protocol):
        blocks = _SHAPES[protocol][0]
        script = _identity_script(protocol, 3 - blocks)
        params = _script_params(protocol, script)
        with pytest.raises(ValueError) as exc:
            _RUNNERS[protocol](params, random.Random(0))
        assert str(exc.value) == "script block count does not match params"

    @pytest.mark.parametrize(
        "choices,error,message",
        [
            ((), ValueError, r"script gives 0 choice\(s\) for 2 set\(s\)"),
            ((0, 1, 2), ValueError, r"script gives 3 choice\(s\) for 2 set\(s\)"),
            ((0, 99), ValueError, "script choice must be <= 2"),
            ((-1, -1), ValueError, "script choice must be >= 0"),
            ((True, 1), TypeError, "script choice must be an int, not bool"),
        ],
        ids=["too-few", "too-many", "past-the-end", "negative", "bool"],
    )
    def test_bad_script_choices_are_refused(self, choices, error, message):
        params = fx.builtin_params("one-sided-3x3")
        params = replace(params, script=replace(params.script, alice_choices=choices))
        with pytest.raises(error, match=message):
            run_protocol_one_sided(params, random.Random(0))


class _RecordingRandom(random.Random):
    """A generator that keeps every randrange result, a run's picks last."""

    def __init__(self, seed):
        super().__init__(seed)
        self.ranges = []

    def randrange(self, *args):
        value = super().randrange(*args)
        self.ranges.append(value)
        return value


def _drawn_params(protocol, kind):
    blocks = _SHAPES[protocol][0]
    if kind is MIN:
        families = (PolyFamily(fx.OS_A, 3, -20, 20), PolyFamily(fx.OS_B, 3, -20, 20))
        w = fx.OS_W
    else:
        families = (CirculantFamily(MAX, 3, -9, 9),) * 2
        w = make_matrix(MAX, [[3, -4, 0], [7, 1, -2], [-5, 6, 2]])
    return ProtocolParams(
        kind=kind, dim=3, publics=(w,) * blocks, left_families=(families[0],) * blocks,
        right_families=(families[1],) * blocks, n_tuples=2, l=40 if kind is MIN else -40,
        l1=-8, l2=8, seed=5,
    )


class TestReplayOfADrawnRun:
    """Any drawn run, recorded as a script (its secrets, its set bodies and
    its picks), replays to the same bytes: the two sources feed one path."""

    @pytest.mark.parametrize("kind", [MIN, MAX], ids=["min-plus", "max-plus"])
    @pytest.mark.parametrize("protocol", sorted(_RUNNERS))
    def test_a_recorded_draw_replays_byte_for_byte(self, protocol, kind, monkeypatch):
        params = _drawn_params(protocol, kind)
        # the baseline's secrets are any family member, the others' finite ones
        name = "sample_family_member" if protocol == "sidelnikov" else "sample_finite_member"
        member, secrets = getattr(protocols, name), []

        def recorded(spec, rng):
            secrets.append(member(spec, rng))
            return secrets[-1]

        monkeypatch.setattr(protocols, name, recorded)
        rng = _RecordingRandom(params.seed)
        drawn = _RUNNERS[protocol](params, rng)
        monkeypatch.undo()
        n = params.blocks
        assert len(secrets) == 4 * n
        sets = [
            tuple(
                m.payload.tuples
                for m in drawn.messages
                if m.sender == party and isinstance(m.payload, MarginalSet)
            )
            for party in ("alice", "bob")
        ]
        picks = rng.ranges[len(rng.ranges) - len(sets[0]) - len(sets[1]):]
        script = ProtocolScript(
            alice_p=tuple(secrets[0:2 * n:2]), alice_q=tuple(secrets[1:2 * n:2]),
            bob_p=tuple(secrets[2 * n::2]), bob_q=tuple(secrets[2 * n + 1::2]),
            alice_sets=sets[0], bob_sets=sets[1],
            alice_choices=tuple(picks[:len(sets[1])]), bob_choices=tuple(picks[len(sets[1]):]),
        )
        replayed = _RUNNERS[protocol](replace(params, script=script), random.Random(0))
        assert encode_transcript(replayed) == encode_transcript(drawn)


class TestRefusalOrder:
    @pytest.mark.parametrize("protocol", sorted(_RUNNERS))
    def test_the_commuting_check_comes_before_the_choice_checks(self, protocol):
        script = _identity_script(protocol, _SHAPES[protocol][0], ("left", 0))
        script = replace(script, alice_choices=(99,) * (len(script.bob_sets) + 1))
        with pytest.raises(ValueError, match="left( block 1)? secrets do not commute"):
            _RUNNERS[protocol](_script_params(protocol, script), random.Random(0))

    def test_a_set_count_mismatch_comes_before_a_bad_body(self):
        script = _identity_script("one-sided", 1)
        bad = replace(script, alice_sets=(((_ODD,),), script.alice_sets[1]))
        with pytest.raises(MarginalVerificationError):
            run_protocol_one_sided(_script_params("one-sided", bad), random.Random(0))
        both = replace(bad, bob_sets=script.bob_sets[:1])
        with pytest.raises(ValueError, match="publishes 2 set\\(s\\) per party, script gives 1"):
            run_protocol_one_sided(_script_params("one-sided", both), random.Random(0))

    @pytest.mark.parametrize("misfit", ["dim", "kind"])
    @pytest.mark.parametrize("protocol", sorted(_RUNNERS))
    def test_a_misfit_secret_is_named_before_any_set_is_built(self, protocol, misfit):
        # a secret of another dim or semiring than the params once failed in
        # a set body or the first product, with a message naming no script;
        # it is now refused ahead of a set count mismatch and a bad body
        script = _identity_script(protocol, _SHAPES[protocol][0])
        bad = {"dim": make_matrix(MIN, [[0] * 4] * 4), "kind": make_matrix(MAX, _ODD.rows)}[misfit]
        script = replace(
            script, bob_q=script.bob_q[:-1] + (bad,), bob_sets=script.bob_sets + (((_ODD,),),)
        )
        last = len(script.bob_q) - 1
        with pytest.raises(ValueError) as exc:
            _RUNNERS[protocol](_script_params(protocol, script), random.Random(0))
        assert str(exc.value) == f"script secret bob_q[{last}] is not a min-plus matrix of dim 3"

    def test_the_block_count_comes_before_the_secrets(self):
        script = _identity_script("multiblock", 2)
        script = replace(script, bob_p=script.bob_p[:1], alice_q=(make_matrix(MAX, _ODD.rows),) * 2)
        with pytest.raises(ValueError, match="script block count does not match params"):
            run_protocol_multiblock(_script_params("multiblock", script), random.Random(0))


class TestFiniteMemberSampling:
    def test_finite_member_found(self):
        spec = PolyFamily(fx.OS_A, 3, -20, 20)
        m = sample_finite_member(spec, random.Random(1))
        assert not m.has_inf
        assert commute_check(m, fx.OS_A)

    def test_exhaustion_on_degree_zero_family(self):
        # every degree-0 polynomial value has infinite off-diagonal entries
        spec = PolyFamily(fx.OS_A, 0, 0, 0)
        with pytest.raises(SamplerExhausted):
            sample_finite_member(spec, random.Random(1))


class TestAttack:
    def test_power_basis(self):
        got = power_basis(fx.OS_A, 2)
        assert got == [identity(MIN, 3), fx.OS_A, fx.OS_A_SQ]
        with pytest.raises(ValueError):
            power_basis(fx.OS_A, -1)

    def test_recovers_baseline_key(self):
        params = _poly_params(fx.OS_W, fx.OS_A, fx.OS_B, seed=11)
        t = run_sidelnikov(params, random.Random(11))
        candidate, z = attack_decomposition(
            fx.OS_W,
            t.message("u"),
            t.message("v"),
            power_basis(fx.OS_A, 3),
            power_basis(fx.OS_B, 3),
        )
        assert candidate == t.key_a
        assert len(z) == 4 and len(z[0]) == 4

    def test_reconstruction_certificate_on_failure(self):
        w = make_matrix(MIN, [[0, 0], [0, 0]])
        u = make_matrix(MIN, [[0, 1], [1, 1]])
        with pytest.raises(NoDecomposition) as exc:
            attack_decomposition(w, u, w, [identity(MIN, 2)], [identity(MIN, 2)])
        assert exc.value.z_table == ((1,),)

    def test_input_validation(self):
        w = fx.OS_W
        with pytest.raises(ValueError):
            attack_decomposition(w, w, w, [], [w])
        with pytest.raises(ValueError):
            attack_decomposition(w, w, w, [fx.SW_A], [w])
        inf = identity(MIN, 3)
        with pytest.raises(ValueError):
            attack_decomposition(inf, w, w, [w], [w])

    def test_masked_publication_can_block_the_rewrite(self):
        # the one-sided protocol publishes c2*p1*W*q1*d2; whether that still
        # decomposes over the power basis depends on the draw, so only the
        # dichotomy is asserted: either the attack reproduces the key or it
        # raises with a certificate
        params = _poly_params(fx.OS_W, fx.OS_A, fx.OS_B, seed=13)
        t = run_protocol_one_sided(params, random.Random(13))
        try:
            candidate, _ = attack_decomposition(
                fx.OS_W,
                t.message("u"),
                t.message("v"),
                power_basis(fx.OS_A, 3),
                power_basis(fx.OS_B, 3),
            )
        except NoDecomposition as e:
            assert len(e.z_table) == 4
        else:
            assert candidate.dim == 3
