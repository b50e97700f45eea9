"""The three benchmark workloads: seeded input generators and the ops they run.

Every workload is a closed loop with one caller.  Op i draws its inputs from
its own generator, seeded from (workload seed, i), so the same seed gives
the same inputs in the same order whatever the speed of the machine, and no
input repeats inside a run.  The library receives only these generated
inputs.

An op has two halves.  ``run`` is the timed library work.  ``check`` runs
after the clock stops: it checks the result (keys agree, decode(encode(x))
== x and re-encoding is byte-equal, CLI exit 0) and returns the canonical
bytes of every artifact the op produced, which feed the run's digest.

Library calls go through module attributes (``lib.protocols.run_...``) so
that the traced run's rebinding of those attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

MIN_PLUS = "min-plus"
MAX_PLUS = "max-plus"
VALUE_RANGE = (-20, 20)
PAIR_BOUNDS = (-20, 20)  # l1..l2 of the pair and chain samplers
N_TUPLES = 3
# One-sided cap l, negated over max-plus, where +150 pins the box to x* alone.
# The cli-files workload keeps the CLI's default (+150) on both semirings,
# as a user would, so its max-plus one-sided sets come out short.
CAP = 150


class CheckFailed(Exception):
    """An op returned, but its output failed a check."""


def op_rng(seed: int, stream: str, i: int) -> random.Random:
    """Generator for op i of a stream; string seeds hash the same on every run."""
    return random.Random(f"{seed}/{stream}/{i}")


def _rows(rng: random.Random, n: int, lo: int = VALUE_RANGE[0], hi: int = VALUE_RANGE[1]):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _jones_rows(rng: random.Random, n: int):
    """Rows of a max-plus Jones matrix: u_i + v_j - e_ij with e a metric.

    The Jones inequalities a_ij + a_jk <= a_ik + a_jj then reduce to the
    triangle inequality e_ik <= e_ij + e_jk, which the closure below enforces.
    """
    u = [rng.randint(-10, 10) for _ in range(n)]
    v = [rng.randint(-10, 10) for _ in range(n)]
    e = [[0 if i == j else rng.randint(0, 40) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                e[i][j] = min(e[i][j], e[i][k] + e[k][j])
    return [[u[i] + v[j] - e[i][j] for j in range(n)] for i in range(n)]


class Op:
    """``recovered``, on attack ops, maps the run's result to whether the
    attack recovered the key."""

    __slots__ = ("label", "run", "check", "recovered")

    def __init__(self, label, run, check, recovered=None):
        self.label = label
        self.run = run
        self.check = check
        self.recovered = recovered


class Workload:
    """Base: ``prefix`` is how many leading ops the output digest covers."""

    name = ""
    prefix = 0
    warmup = 0

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def warm_up(self) -> None:
        """Run untimed ops from a separate input stream, so that the timed
        ops' inputs stay unseen."""
        for i in range(self.warmup):
            op = self.make_op(op_rng(self.seed, "warmup-" + self.name, i), i)
            op.check(op.run())

    def make_op(self, rng: random.Random, i: int) -> Op:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        return self.make_op(op_rng(self.seed, self.name, i), i)

    # -- checks shared by the exchange workloads -----------------------------

    def _transcript_bytes(self, transcript, data: bytes) -> bytes:
        wire = self.lib.wire
        if not transcript.agreed or transcript.key_a != transcript.key_b:
            raise CheckFailed("keys-disagree")
        back = wire.decode_transcript(data)
        if back != transcript:
            raise CheckFailed("transcript-roundtrip")
        if wire.encode_transcript(back) != data:
            raise CheckFailed("transcript-reencode")
        return data

    def _kind(self, name: str):
        return self.lib.semiring.SemiringKind(name)

    def _matrix(self, kind, rows):
        return self.lib.matrix.make_matrix(kind, rows)


class PairExchange(Workload):
    """Sandwich and 2-block multiblock exchanges; the solver dominates.

    Op structure follows the op index so that every run holds the same mix,
    with period 36: the semiring alternates every op, the family every two
    ops, every third op is a 2-block multiblock run, and every third group of
    three ops runs at dimension 6, the rest at 5.  A dimension-6 op costs
    about twice a dimension-5 op; with a 2:1 mix the median falls inside
    the dimension-5 mode and the 90th percentile inside the dimension-6
    mode, not on the gap between them.  Values come from the seed.
    """

    name = "pair-exchange"
    prefix = 36
    warmup = 3

    def make_op(self, rng, i):
        lib = self.lib
        kind = self._kind(MIN_PLUS if i % 2 == 0 else MAX_PLUS)
        poly = (i // 2) % 2 == 0
        blocks = 2 if i % 3 == 2 else 1
        n = 6 if (i // 3) % 3 == 2 else 5

        def family():
            if poly:
                return lib.families.PolyFamily(self._matrix(kind, _rows(rng, n)), 2, *VALUE_RANGE)
            return lib.families.CirculantFamily(kind, n, *VALUE_RANGE)

        publics = tuple(self._matrix(kind, _rows(rng, n)) for _ in range(blocks))
        params = lib.protocols.ProtocolParams(
            kind=kind,
            dim=n,
            publics=publics,
            left_families=tuple(family() for _ in range(blocks)),
            right_families=tuple(family() for _ in range(blocks)),
            n_tuples=N_TUPLES,
            l=CAP if kind.value == MIN_PLUS else -CAP,
            l1=PAIR_BOUNDS[0],
            l2=PAIR_BOUNDS[1],
            seed=rng.randrange(2**31),
        )
        protocol = "multiblock" if blocks == 2 else "sandwich"

        def run():
            runner = (
                lib.protocols.run_protocol_multiblock
                if blocks == 2
                else lib.protocols.run_protocol_sandwich
            )
            transcript = runner(params, random.Random(params.seed))
            return transcript, lib.wire.encode_transcript(transcript)

        def check(result):
            return self._transcript_bytes(*result)

        return Op(protocol, run, check)


class MaskedExchange(Workload):
    """One-sided exchanges and attacked baseline exchanges; no solver calls.

    Op i % 4 picks the shape: 0 one-sided over min-plus poly:deg=3, 1 the
    baseline over the same kind of params followed by the decomposition
    attack over degree-3 power bases, 2 one-sided over max-plus upper-t or
    lower-s circulants, 3 one-sided over max-plus Jones deformations, whose
    entries are Fractions.  Dimensions cycle 6, 7, 8 (Jones: 4, 5), except
    that the attacked runs, the slowest ops, are all at dimension 8: they
    make a quarter of the ops, so the 90th percentile falls inside their
    mode rather than on the edge between two modes.
    """

    name = "masked-exchange"
    prefix = 24
    warmup = 4
    ATTACK_DEGREE = 3

    def make_op(self, rng, i):
        lib = self.lib
        fam = lib.families
        shape = i % 4
        rnd = i // 4
        if shape == 3:
            kind, n = self._kind(MAX_PLUS), 4 + rnd % 2
            left = fam.JonesDeformFamily(self._matrix(kind, _jones_rows(rng, n)))
            right = fam.JonesDeformFamily(self._matrix(kind, _jones_rows(rng, n)))
        elif shape == 2:
            kind, n = self._kind(MAX_PLUS), 6 + rnd % 3
            make = fam.UpperTCirculantFamily if rnd % 2 == 0 else fam.LowerSCirculantFamily
            left = make(kind, n, rng.randint(*VALUE_RANGE), *VALUE_RANGE)
            right = make(kind, n, rng.randint(*VALUE_RANGE), *VALUE_RANGE)
        else:
            kind, n = self._kind(MIN_PLUS), 8 if shape == 1 else 6 + rnd % 3
            left = fam.PolyFamily(self._matrix(kind, _rows(rng, n)), 3, *VALUE_RANGE)
            right = fam.PolyFamily(self._matrix(kind, _rows(rng, n)), 3, *VALUE_RANGE)
        params = lib.protocols.ProtocolParams(
            kind=kind,
            dim=n,
            publics=(self._matrix(kind, _rows(rng, n)),),
            left_families=(left,),
            right_families=(right,),
            n_tuples=N_TUPLES,
            l=CAP if kind.value == MIN_PLUS else -CAP,
            l1=PAIR_BOUNDS[0],
            l2=PAIR_BOUNDS[1],
            seed=rng.randrange(2**31),
        )
        if shape == 1:
            run, check = self._attacked(params)
            return Op("sidelnikov+attack", run, check, recovered=lambda result: result[2]["match"])

        def run():
            transcript = lib.protocols.run_protocol_one_sided(params, random.Random(params.seed))
            return transcript, lib.wire.encode_transcript(transcript)

        def check(result):
            return self._transcript_bytes(*result)

        return Op("one-sided", run, check)

    def _attacked(self, params):
        lib = self.lib
        proto = lib.protocols

        def run():
            transcript = proto.run_sidelnikov(params, random.Random(params.seed))
            w = params.publics[0]
            u, v = transcript.message("u"), transcript.message("v")
            left = proto.power_basis(params.left_families[0].base, self.ATTACK_DEGREE)
            right = proto.power_basis(params.right_families[0].base, self.ATTACK_DEGREE)
            try:
                candidate, z = proto.attack_decomposition(w, u, v, left, right)
                decomposed = True
            except proto.NoDecomposition as e:
                candidate, z, decomposed = None, e.z_table, False
            report = {
                "type": "report",
                "protocol": transcript.protocol,
                "degree": self.ATTACK_DEGREE,
                "kind": params.kind,
                "decomposed": decomposed,
                "match": decomposed and candidate == transcript.key_a,
                "z": z,
                "candidate": candidate,
                "expected": transcript.key_a,
            }
            wire = lib.wire
            return transcript, wire.encode_transcript(transcript), report, wire.encode_report(report)

        def check(result):
            transcript, data, report, report_bytes = result
            wire = lib.wire
            out = self._transcript_bytes(transcript, data)
            back = wire.decode_report(report_bytes)
            if back != report:
                raise CheckFailed("report-roundtrip")
            if wire.encode_report(back) != report_bytes:
                raise CheckFailed("report-reencode")
            return out + report_bytes

        return run, check


class CliFiles(Workload):
    """In-process ``tropmarg`` subcommands on files in a private directory.

    One cycle is 31 ops, each one ``cli.main`` call (or, last, one library
    op): gen-params for every family spec, gen-marginal for three words in
    three encodings, verify-marginal on each of those files and on the
    interval-encoded compression fixture, run-protocol on the four builtin
    fixtures, attack on the attack-demo transcript, and an n-factor chain
    sampled, encoded and decoded through the library, since no subcommand
    reaches that word.  File names are relative: the run executes inside the
    private directory, so the captured output holds no absolute path.
    """

    name = "cli-files"
    prefix = 31  # one cycle
    FAMILIES = ("poly:deg=2", "circulant", "upper-t", "lower-s", "jones", "ldp")
    WORDS = ("right", "left", "additive")
    ENCODINGS = ("raw", "interval", "delta")
    BUILTINS = (
        ("one-sided", "one-sided-3x3"),
        ("sandwich", "sandwich4x4"),
        ("multiblock", "two-block-3x3"),
        ("sidelnikov", "attack-demo"),
    )
    BOX_FILE = "compression-box.json"

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self._plan_key = None
        self._plan = None
        wire = lib.wire
        wire.write_bytes(
            self.BOX_FILE,
            wire.encode_marginal_set(lib.fixtures.compression_box_set(), encoding="interval"),
        )

    def op(self, i):
        return self._cycle(self.name, i // self.prefix)[i % self.prefix]

    def warm_up(self):
        for op in self._cycle("warmup-" + self.name, 0):
            op.check(op.run())

    def _cycle(self, stream: str, c: int) -> list:
        if self._plan_key != (stream, c):
            self._plan_key = (stream, c)
            self._plan = self._build_cycle(op_rng(self.seed, stream, c))
        return self._plan

    def _build_cycle(self, rng: random.Random) -> list:
        ops = []
        params_files = []
        for j, spec in enumerate(self.FAMILIES):
            if spec == "jones":
                kind = MAX_PLUS
            elif spec == "ldp":
                kind = MIN_PLUS
            else:
                kind = rng.choice((MIN_PLUS, MAX_PLUS))
            out = f"params-{j}.json"
            params_files.append(out)
            ops.append(self._cli("gen-params", [
                "gen-params", "--semiring", kind, "--dim", str(rng.randint(3, 5)),
                f"--range={VALUE_RANGE[0]}..{VALUE_RANGE[1]}", "--family", spec,
                "--seed", str(rng.randrange(2**31)), "--out", out,
            ], out, "params"))
        set_files = []
        first = rng.randrange(len(params_files))
        for w, word in enumerate(self.WORDS):
            for e, encoding in enumerate(self.ENCODINGS):
                source = params_files[(first + 3 * w + e) % len(params_files)]
                out = f"set-{word}-{encoding}.json"
                set_files.append(out)
                ops.append(self._cli("gen-marginal", [
                    "gen-marginal", "--word", word, "--in", source, "--count", "4",
                    "--seed", str(rng.randrange(2**31)), "--encoding", encoding, "--out", out,
                ], out, "set"))
        for path in set_files + [self.BOX_FILE]:
            ops.append(self._cli("verify-marginal", ["verify-marginal", "--set", path]))
        for protocol, builtin in self.BUILTINS:
            out = f"transcript-{builtin}.json"
            ops.append(self._cli("run-protocol", [
                "run-protocol", protocol, "--params", f"builtin:{builtin}",
                "--seed", str(rng.randrange(2**31)), "--out", out,
            ], out, "transcript"))
        attack = self._cli("attack", [
            "attack", "--transcript", "transcript-attack-demo.json", "--degree", "3",
            "--out", "report.json",
        ], "report.json", "report")
        attack.recovered = lambda result: result[0] == 0
        ops.append(attack)
        ops.append(self._chain_op(rng))
        assert len(ops) == self.prefix
        return ops

    def _cli(self, label: str, argv: list, out=None, what=None):
        """One ``cli.main(argv)`` op; `out` is the file it writes, of kind `what`."""
        lib = self.lib

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(argv)
            return code, buf.getvalue()

        def check(result):
            code, stdout = result
            if code != 0:
                raise CheckFailed(f"cli-exit-{code}")
            data = b""
            if out is not None:
                data = lib.wire.read_bytes(out)
                self._reencode_file(what, data)
            return stdout.encode("utf-8") + b"\0" + data

        return Op(label, run, check)

    def _reencode_file(self, what: str, data: bytes) -> None:
        wire = self.lib.wire
        if what == "params":
            again = wire.encode_params(wire.decode_params(data))
        elif what == "set":
            encoding = json.loads(data)["encoding"]
            again = wire.encode_marginal_set(wire.decode_marginal_set(data), encoding=encoding)
        elif what == "transcript":
            again = wire.encode_transcript(wire.decode_transcript(data))
        else:
            again = wire.encode_report(wire.decode_report(data))
        if again != data:
            raise CheckFailed(f"{what}-reencode")

    def _chain_op(self, rng: random.Random) -> Op:
        lib = self.lib
        kind = self._kind(MIN_PLUS)
        chain = [self._matrix(kind, _rows(rng, 3)) for _ in range(4)]  # k=3, 3 slots
        draw_seed = rng.randrange(2**31)

        def run():
            marginal, wire = lib.marginal, lib.wire
            s = marginal.sample_n_factor_marginal(
                chain, N_TUPLES, *PAIR_BOUNDS, random.Random(draw_seed)
            )
            data = wire.encode_marginal_set(s)
            return s, data, wire.decode_marginal_set(data)

        def check(result):
            s, data, back = result
            if back != s:
                raise CheckFailed("set-roundtrip")
            if lib.wire.encode_marginal_set(back) != data:
                raise CheckFailed("set-reencode")
            return data

        return Op("n-factor-chain", run, check)


WORKLOADS = {w.name: w for w in (PairExchange, MaskedExchange, CliFiles)}
