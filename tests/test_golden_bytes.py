"""Pinned output bytes of every sampler and every protocol runner.

Each case draws its inputs from a fixed seed, runs one library call and
encodes the result; the SHA-256 of those bytes is recorded below.  A
refactor of the samplers or the runners must leave every digest unchanged:
the digests cover the order in which the random generator is consumed, the
exact scalar types in each tuple and the set's tuple order.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from tropmarg.families import (
    CirculantFamily,
    JonesDeformFamily,
    PolyFamily,
    deform,
    sample_jones,
)
from tropmarg.marginal import (
    sample_additive_marginal,
    sample_five_factor_marginal,
    sample_left_marginal,
    sample_n_factor_marginal,
    sample_right_marginal,
    sample_sandwich_marginal,
)
from tropmarg.matrix import make_matrix
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
from tropmarg.semiring import SemiringKind
from tropmarg.wire import encode_marginal_set, encode_report, encode_transcript

MIN = SemiringKind.MIN_PLUS
MAX = SemiringKind.MAX_PLUS
KINDS = {"min": MIN, "max": MAX}


def _square(kind, rng, n=3):
    return make_matrix(kind, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def _one_sided_cap(kind):
    # +cap over max-plus pins the box to x* alone; push the other way
    return 40 if kind is MIN else -40


def _set_bytes(sampler: str, kind, seed: int) -> bytes:
    rng = random.Random(f"golden/{sampler}/{kind.value}/{seed}")
    a, b, c, d = (_square(kind, rng) for _ in range(4))
    if sampler == "right":
        s = sample_right_marginal(a, 4, _one_sided_cap(kind), rng)
    elif sampler == "left":
        s = sample_left_marginal(a, 4, _one_sided_cap(kind), rng)
    elif sampler == "sandwich":
        s = sample_sandwich_marginal(a, 3, -8, 8, rng)
    elif sampler == "five-factor":
        s = sample_five_factor_marginal(a, b, c, 3, -8, 8, rng)
    elif sampler == "n-factor":
        s = sample_n_factor_marginal([a, b, c, d], 3, -8, 8, rng)
    else:
        s = sample_additive_marginal(a, 4, 6, rng)
    return encode_marginal_set(s)


def _jones_bytes(side: str) -> bytes:
    rng = random.Random(f"golden/jones/{side}")
    anchor = deform(sample_jones(4, -20, 20, rng), Fraction(1, 3))
    assert any(isinstance(x, Fraction) for row in anchor.rows for x in row)
    sampler = sample_right_marginal if side == "right" else sample_left_marginal
    return encode_marginal_set(sampler(anchor, 4, -40, rng))


_RUNNERS = {
    "sidelnikov": run_sidelnikov,
    "one-sided": run_protocol_one_sided,
    "sandwich": run_protocol_sandwich,
    "multiblock": run_protocol_multiblock,
}


def _transcript_bytes(protocol: str, kind) -> bytes:
    rng = random.Random(f"golden/{protocol}/{kind.value}")
    blocks = 2 if protocol == "multiblock" else 1
    n = 3
    if protocol == "one-sided" and kind is MAX:
        left = JonesDeformFamily(sample_jones(n, -20, 20, rng))
        right = JonesDeformFamily(sample_jones(n, -20, 20, rng))
    elif protocol == "sandwich" and kind is MAX:
        left = right = CirculantFamily(kind, n, -9, 9)
    else:
        left = PolyFamily(_square(kind, rng, n), 2, -9, 9)
        right = PolyFamily(_square(kind, rng, n), 2, -9, 9)
    params = ProtocolParams(
        kind=kind,
        dim=n,
        publics=tuple(_square(kind, rng, n) for _ in range(blocks)),
        left_families=(left,) * blocks,
        right_families=(right,) * blocks,
        n_tuples=3,
        l=_one_sided_cap(kind),
        l1=-8,
        l2=8,
        seed=rng.randrange(2**31),
    )
    t = _RUNNERS[protocol](params, random.Random(params.seed))
    assert t.agreed
    return encode_transcript(t)


SET_DIGESTS = {
    "additive:max:0": "13098b5dc955128b96e09b9c2f00641cba3af3e3fcee66f38a7986978ae7560e",
    "additive:max:1": "77e1aadf9263489892ff357da3842f66652e4ca5a056a3c9a8e3bbaf4109e808",
    "additive:min:0": "661156d79963f66390e68af65521567aafd4a235fc6785bad529a476662ed646",
    "additive:min:1": "49510776b38961eec00c359488ecc777a2eac9dde900ace907bccfb825d796b1",
    "five-factor:max:0": "30306fe3c82c5f9063adbb9d19cf94288ce8bbed530df502d7bb9e3e7db48e0b",
    "five-factor:max:1": "27c9177d9e449d0ee1bbc3d0209a285c3b4ac35b7a256bce180d3b4ed1604959",
    "five-factor:min:0": "bdfba86ee84988678b39e3aa7ccbadff3e8f179e4e6e40c28b23132a6dd6c962",
    "five-factor:min:1": "9032b8c968f15bdcaec66d36caad3602c0f05f93bdded77d18a163e47e45078d",
    "left:max:0": "4fdda3b7498f89782647751c264bc59e05ca128a5feb46b8336c42d1d6355e69",
    "left:max:1": "23139e3a6e77e3572238e873772d4460907f5336ef4aaff48c76002fa1ec3f96",
    "left:min:0": "2654aafc8f55de13cb04f6b545dbbc52128d557cb7c3f4270482cd73bb9c5c3f",
    "left:min:1": "2f173f0eb323ed051328f8cd723bafe04f30cfd372fb92ca56fc4249637f98af",
    "n-factor:max:0": "6b21b864b49ea06d6a0a8fcfa5eeb2d11ea0ed872b734dbbee6d9c9e7722f60a",
    "n-factor:max:1": "598b5444ee582b2aa8dcedf59761901e8a3bae60aa9a2f96af560dca3605a258",
    "n-factor:min:0": "b5289a38251dd984b42bbcc09c3bcb9a9e2ae58b87cc492d877adfa66d6853e6",
    "n-factor:min:1": "711f9b2224d395c6f24beffa21b7bdc392ab8f636b263a9fcc66e0cf506d09c4",
    "right:max:0": "026cb9b11b166d9b733fa5aca3b6f510157cf8270aeb973b6edf63b3c6bca7c5",
    "right:max:1": "dee5545cb69f273777794441e6ec134f0c29a6206fe2d76bab4ab006837690a8",
    "right:min:0": "664b9ae08d5176e963c2ef1884dbb5df4b2dae8c61fede0c2915f0537c308d77",
    "right:min:1": "fc4ea98a4505ea17cb6c2978901f66debecaf1573268c711b0a9cd6626a23100",
    "sandwich:max:0": "358d44ae7e5351a68a88e46601fd56986eea0ad5918027bc8f4ca01c947e191c",
    "sandwich:max:1": "adc56c925f28bda3ee6df29932d0664b8de4e71396c061c3d96e6adf12241976",
    "sandwich:min:0": "3f87e0743bd83aa70c70da77e5cdfd395ba7efc7f129653f72939dd5651e9511",
    "sandwich:min:1": "afbf84d360f5599c0392ddcdbc6c80297a5a824bf4b5cdb69e4206ae7cbf919d",
}

JONES_DIGESTS = {
    "left": "82ff521400c0d64a874cc133e8e946e63b5dffd11379775bc215588b14e4d59d",
    "right": "aac3d06e65df12b7ce1535c6150a6b2702ec674a47e7f683af38a35c7d9826be",
}

TRANSCRIPT_DIGESTS = {
    "multiblock:max": "7c0654c13f22a6cc392f6dabb4ed857b7054b42c828e2a33503ccbc960255f94",
    "multiblock:min": "cbf5ee3482d0706eed52a218c6155b221eb1d90f1d62839e4824e6cf789d7a7a",
    "one-sided:max": "181827cca67dac7f9658024c1b66d7b41e72da482347f90b8e68ce3d1c669448",
    "one-sided:min": "8db3416258c6a135c37126979425d9c540b9df0416567bcfa28f6dc713415f1b",
    "sandwich:max": "3b513999496e05461e11dd75896185e601d432aaabc009ff942f26f474dc5449",
    "sandwich:min": "1f827e797ad691f8da14529e4e28e76b3bb248c484c0ab0ac931b70299512308",
    "sidelnikov:max": "3cbb05b180ae6b6b3bba7fba5a3b12ecb934ef7488c756cd9183ca024886258d",
    "sidelnikov:min": "5b4cc6b29a03857aa82c8f00aee6d6281735f0029836df48bf383bffa4e28f71",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(SET_DIGESTS))
def test_sampler_bytes_pinned(case):
    sampler, kind, seed = case.split(":")
    assert _sha(_set_bytes(sampler, KINDS[kind], int(seed))) == SET_DIGESTS[case]


@pytest.mark.parametrize("side", sorted(JONES_DIGESTS))
def test_fraction_jones_one_sided_bytes_pinned(side):
    assert _sha(_jones_bytes(side)) == JONES_DIGESTS[side]


@pytest.mark.parametrize("case", sorted(TRANSCRIPT_DIGESTS))
def test_transcript_bytes_pinned(case):
    protocol, kind = case.split(":")
    assert _sha(_transcript_bytes(protocol, KINDS[kind])) == TRANSCRIPT_DIGESTS[case]


def test_every_sampler_and_runner_is_pinned():
    samplers = {c.split(":")[0] for c in SET_DIGESTS}
    assert samplers == {"right", "left", "sandwich", "five-factor", "n-factor", "additive"}
    assert len(SET_DIGESTS) == 6 * 2 * 2
    assert {c.split(":")[0] for c in TRANSCRIPT_DIGESTS} == set(_RUNNERS)


# --------------------------------------------------------------------------
# Degree-3 baseline runs at dim 8, the decomposition attack on them, and a
# max-plus one-sided run with Fraction entries: the inputs whose products
# dominate the exchanges' cost.

ATTACK_DEGREE = 3


def _sidelnikov_deg3(label: str):
    rng = random.Random(f"golden/sidelnikov-deg3/{label}")
    n = 8
    left = PolyFamily(_square(MIN, rng, n), ATTACK_DEGREE, -9, 9)
    right = PolyFamily(_square(MIN, rng, n), ATTACK_DEGREE, -9, 9)
    params = ProtocolParams(
        kind=MIN,
        dim=n,
        publics=(_square(MIN, rng, n),),
        left_families=(left,),
        right_families=(right,),
        n_tuples=3,
        l=40,
        l1=-8,
        l2=8,
        seed=rng.randrange(2**31),
    )
    t = run_sidelnikov(params, random.Random(params.seed))
    assert t.agreed
    return params, t


def _report_bytes(case: str) -> bytes:
    """The CLI's attack report; "decomposed" attacks with power bases of the
    secrets' own bases, "no-decomposition" with those of unrelated matrices."""
    params, t = _sidelnikov_deg3(case)
    if case == "decomposed":
        left_base = params.left_families[0].base
        right_base = params.right_families[0].base
    else:
        rng = random.Random("golden/attack/unrelated")
        left_base, right_base = _square(MIN, rng, 8), _square(MIN, rng, 8)
    left = power_basis(left_base, ATTACK_DEGREE)
    right = power_basis(right_base, ATTACK_DEGREE)
    u, v = t.message("u"), t.message("v")
    candidate = None
    try:
        candidate, z = attack_decomposition(params.publics[0], u, v, left, right)
        decomposed = True
    except NoDecomposition as e:
        z, decomposed = e.z_table, False
    assert decomposed == (case == "decomposed")
    return encode_report(
        {
            "protocol": t.protocol,
            "degree": ATTACK_DEGREE,
            "kind": MIN,
            "decomposed": decomposed,
            "match": decomposed and candidate == t.key_a,
            "z": z,
            "candidate": candidate,
            "expected": t.key_a,
        }
    )


def _jones_one_sided_bytes() -> bytes:
    rng = random.Random("golden/one-sided-jones/max")
    n = 5
    left = JonesDeformFamily(sample_jones(n, -20, 20, rng))
    right = JonesDeformFamily(sample_jones(n, -20, 20, rng))
    params = ProtocolParams(
        kind=MAX,
        dim=n,
        publics=(_square(MAX, rng, n),),
        left_families=(left,),
        right_families=(right,),
        n_tuples=3,
        l=-40,
        l1=-8,
        l2=8,
        seed=rng.randrange(2**31),
    )
    t = run_protocol_one_sided(params, random.Random(params.seed))
    assert t.agreed
    assert any(isinstance(x, Fraction) for row in t.key_a.rows for x in row)
    return encode_transcript(t)


REPORT_DIGESTS = {
    "decomposed": "30d7f60188c1cf8b92653a949af0f08f1a09c690860b6b970441869291b65ef2",
    "no-decomposition": "0c944e334495f699b5d7728673a536c7adcf22165de2e30a346d32a2a70fdae5",
}

SIDELNIKOV_DEG3_DIGEST = "3d72f31a91d3f3d8e8305830a7fb7c4ec0392bba5c4fa5908eef58b3bc59005a"

JONES_ONE_SIDED_DIGEST = "db00c7ac630f083540c21a1a6fae3841b9390e34b0f7d5213edd7137f83cf1b0"


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
def test_attack_report_bytes_pinned(case):
    assert _sha(_report_bytes(case)) == REPORT_DIGESTS[case]


def test_sidelnikov_degree3_dim8_bytes_pinned():
    _, t = _sidelnikov_deg3("transcript")
    assert _sha(encode_transcript(t)) == SIDELNIKOV_DEG3_DIGEST


def test_fraction_jones_one_sided_transcript_pinned():
    assert _sha(_jones_one_sided_bytes()) == JONES_ONE_SIDED_DIGEST


# --------------------------------------------------------------------------
# Two-slot sets at k = 5 and 6, where the pair systems are largest: both
# samplers over both semirings, one case each on Fraction constants, and a
# 2-block transcript at dim 6 (its seam sets are sandwich sets).


def _fraction_square(kind, rng, n):
    return make_matrix(
        kind,
        [
            [Fraction(rng.randint(-27, 27), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ],
    )


def _large_pair_set_bytes(case: str) -> bytes:
    sampler, kind, k, scalars = case.split(":")
    kind, k = KINDS[kind], int(k)
    rng = random.Random(f"golden/{case}")
    square = _fraction_square if scalars == "fraction" else _square
    a, b, c = (square(kind, rng, k) for _ in range(3))
    if sampler == "sandwich":
        s = sample_sandwich_marginal(a, 3, -20, 20, rng)
    else:
        s = sample_five_factor_marginal(a, b, c, 3, -20, 20, rng)
    assert len(s) == 3
    if scalars == "fraction":
        entries = (x for t in s.tuples for m in t for row in m.rows for x in row)
        assert any(isinstance(x, Fraction) for x in entries)
    return encode_marginal_set(s)


LARGE_PAIR_SET_DIGESTS = {
    "five-factor:max:5:int": "492b0a642fff0d11d933d2fcf94b2e02847407c6c5e3fb3633fe573229233068",
    "five-factor:max:6:int": "2a17b5ba9b8c347f34e713aeabc6186082552b5ad1cd0fe632e3810d270b2ba7",
    "five-factor:min:5:fraction": "88ac7b92c80d67b4761ec86afde4cb40dcaf062cf25b8d1c0cc688bdc005013b",
    "five-factor:min:5:int": "bf40d527dcbdbdac9d5c58b2762ec2036aa8054c4789ccba7aa762aacc0e7268",
    "five-factor:min:6:int": "129e60cf88484c2d74b6a6d878bd17982380cab42005d96955c64ee2f49bcecd",
    "sandwich:max:5:int": "0b299be1b89d418d9fa4b8de24cf7952ef2ef76d1bc629ec6aba7f36716ebc01",
    "sandwich:max:6:fraction": "f40b0721edf41625ee4217fe45eeb1c05db4112965bf4c3ad48eff2b04332d75",
    "sandwich:max:6:int": "cc2099a7843574a3225226362b8db8b7158ce7dd3fe4994d947e4cbf058841be",
    "sandwich:min:5:int": "0cc54843a9ec3721f17f372840a4f6ce6ded511c2108ec70f601cca21f7d5039",
    "sandwich:min:6:int": "11a45f60fb52ee4e6a9cac0a8f54964e1e58a88297f65e2dfd3368f520eec52c",
}

MULTIBLOCK_DIM6_DIGEST = "d1684cedac4b4b4c6a724cdc4e8adaf1c73c6c9168ac1d17c3c92fc3204e49ec"


@pytest.mark.parametrize("case", sorted(LARGE_PAIR_SET_DIGESTS))
def test_large_pair_set_bytes_pinned(case):
    assert _sha(_large_pair_set_bytes(case)) == LARGE_PAIR_SET_DIGESTS[case]


def test_multiblock_dim6_transcript_pinned():
    rng = random.Random("golden/multiblock-dim6/min")
    n = 6
    left = PolyFamily(_square(MIN, rng, n), 2, -9, 9)
    right = PolyFamily(_square(MIN, rng, n), 2, -9, 9)
    params = ProtocolParams(
        kind=MIN,
        dim=n,
        publics=tuple(_square(MIN, rng, n) for _ in range(2)),
        left_families=(left,) * 2,
        right_families=(right,) * 2,
        n_tuples=3,
        l=40,
        l1=-20,
        l2=20,
        seed=rng.randrange(2**31),
    )
    t = run_protocol_multiblock(params, random.Random(params.seed))
    assert t.agreed
    assert _sha(encode_transcript(t)) == MULTIBLOCK_DIM6_DIGEST
