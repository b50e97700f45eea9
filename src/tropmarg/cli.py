"""Seeded command-line front end.

Subcommands: gen-params, gen-marginal, verify-marginal, run-protocol, attack,
selftest.  Every file output goes through --out with an atomic write; every
failure prints one canonical-JSON error record to stdout and exits nonzero:
1 for verification, agreement or internal self-check failures, 2 for
malformed input or arguments, 3 for sampler exhaustion.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from dataclasses import replace

from . import fixtures, selfcheck
from .families import (
    CirculantFamily,
    JonesDeformFamily,
    LdpFamily,
    LowerSCirculantFamily,
    PolyFamily,
    UpperTCirculantFamily,
    sample_family_member,
    sample_jones,
)
from .marginal import (
    SamplerExhausted,
    sample_additive_marginal,
    sample_five_factor_marginal,
    sample_left_marginal,
    sample_right_marginal,
    sample_sandwich_marginal,
    verify_marginal,
)
from .matrix import Matrix, make_matrix, mat_mul
from .protocols import (
    NoDecomposition,
    ProtocolParams,
    attack_decomposition,
    power_basis,
    run_protocol_multiblock,
    run_protocol_one_sided,
    run_protocol_sandwich,
    run_sidelnikov,
    sample_finite_member,
)
from .semiring import SelfCheckError, SemiringKind
from .wire import (
    MarginalVerificationError,
    WireFormatError,
    decode_marginal_set,
    decode_params,
    decode_transcript,
    decode_word,
    encode_marginal_set,
    encode_params,
    encode_report,
    encode_transcript,
    read_bytes,
    to_canonical_bytes,
    write_bytes,
)


class CliError(Exception):
    def __init__(self, code: int, reason: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.reason = reason
        self.detail = detail


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as error records, not usage text,
    and accepts range values like -20..20 without the --range= form."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d+\.\.-?\d+$")

    def error(self, message):
        raise CliError(2, "bad-arguments", message)


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


def _error_record(code: int, reason: str, detail: str) -> None:
    record = {"type": "error", "code": code, "reason": reason, "detail": detail}
    sys.stdout.write(to_canonical_bytes(record).decode("utf-8"))


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise CliError(2, "bad-arguments", f"range must look like LO..HI, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise CliError(2, "bad-arguments", f"non-integer range bound in {text!r}")
    if lo_i > hi_i:
        raise CliError(2, "bad-arguments", f"empty range {text!r}")
    return lo_i, hi_i


def _parse_family_spec(text: str) -> tuple[str, dict]:
    name, sep, rest = text.partition(":")
    options: dict[str, int] = {}
    if sep:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise CliError(2, "bad-arguments", f"family option {item!r} needs key=value")
            try:
                options[key] = int(value)
            except ValueError:
                raise CliError(2, "bad-arguments", f"family option {item!r} must be an integer")
    return name, options


def _family_pair(
    name: str,
    options: dict,
    kind: SemiringKind,
    dim: int,
    lo: int,
    hi: int,
    rng: random.Random,
):
    """One family spec per side.  Draw order: left before right."""
    opts = dict(options)

    def done(left, right):
        if opts:
            raise CliError(2, "bad-arguments", f"unknown family options {sorted(opts)}")
        return left, right

    if name == "poly":
        deg = opts.pop("deg", 2)
        if deg < 0:
            raise CliError(2, "bad-arguments", "polynomial degree must be >= 0")
        base_l = _random_matrix(kind, dim, lo, hi, rng)
        base_r = _random_matrix(kind, dim, lo, hi, rng)
        return done(PolyFamily(base_l, deg, lo, hi), PolyFamily(base_r, deg, lo, hi))
    if name == "circulant":
        spec = CirculantFamily(kind, dim, lo, hi)
        return done(spec, spec)
    if name == "upper-t":
        t_l = opts.pop("t", None)
        t_r = t_l if t_l is not None else rng.randint(lo, hi)
        t_l = t_l if t_l is not None else rng.randint(lo, hi)
        return done(
            UpperTCirculantFamily(kind, dim, t_l, lo, hi),
            UpperTCirculantFamily(kind, dim, t_r, lo, hi),
        )
    if name == "lower-s":
        s_l = opts.pop("s", None)
        s_r = s_l if s_l is not None else rng.randint(lo, hi)
        s_l = s_l if s_l is not None else rng.randint(lo, hi)
        return done(
            LowerSCirculantFamily(kind, dim, s_l, lo, hi),
            LowerSCirculantFamily(kind, dim, s_r, lo, hi),
        )
    if name == "jones":
        if kind is not SemiringKind.MAX_PLUS:
            raise CliError(2, "bad-arguments", "jones family requires --semiring max-plus")
        den = opts.pop("den", 12)
        if den < 1:
            raise CliError(2, "bad-arguments", "jones denominator cap must be >= 1")
        base_l = sample_jones(dim, lo, hi, rng)
        base_r = sample_jones(dim, lo, hi, rng)
        return done(
            JonesDeformFamily(base_l, max_denominator=den),
            JonesDeformFamily(base_r, max_denominator=den),
        )
    if name == "ldp":
        if kind is not SemiringKind.MIN_PLUS:
            raise CliError(2, "bad-arguments", "ldp family requires --semiring min-plus")
        r = opts.pop("r", abs(hi))
        k = opts.pop("k", -abs(lo))
        try:
            spec = LdpFamily(dim, r, k)
        except (TypeError, ValueError) as e:
            raise CliError(2, "bad-arguments", f"bad ldp parameters: {e}")
        return done(spec, spec)
    raise CliError(2, "bad-arguments", f"unknown family {name!r}")


def _random_matrix(
    kind: SemiringKind, dim: int, lo: int, hi: int, rng: random.Random
) -> Matrix:
    return make_matrix(
        kind, [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)]
    )


def _load_params(source: str) -> ProtocolParams:
    if source.startswith("builtin:"):
        try:
            return fixtures.builtin_params(source[len("builtin:"):])
        except KeyError:
            raise CliError(
                2,
                "bad-arguments",
                f"unknown builtin {source!r}; have {', '.join(fixtures.BUILTIN_NAMES)}",
            )
    return decode_params(read_bytes(source))


# --------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen_params(args) -> int:
    kind = SemiringKind(args.semiring)
    if args.dim < 1:
        raise CliError(2, "bad-arguments", "--dim must be >= 1")
    lo, hi = _parse_range(args.range)
    name, options = _parse_family_spec(args.family)
    rng = random.Random(args.seed)
    w = _random_matrix(kind, args.dim, lo, hi, rng)
    left, right = _family_pair(name, options, kind, args.dim, lo, hi, rng)
    try:
        params = ProtocolParams(
            kind=kind,
            dim=args.dim,
            publics=(w,),
            left_families=(left,),
            right_families=(right,),
            n_tuples=args.tuples,
            l=args.cap,
            l1=args.pair_lo,
            l2=args.pair_hi,
            seed=args.seed,
        )
    except ValueError as e:
        raise CliError(2, "bad-arguments", str(e))
    try:
        data = encode_params(params)
    except WireFormatError as e:
        raise CliError(2, "bad-arguments", str(e))
    write_bytes(args.out, data)
    _print(f"params written to {args.out}: {kind} dim {args.dim}, family {name}, seed {args.seed}")
    return 0


def _cmd_gen_marginal(args) -> int:
    params = _load_params(args.in_file)
    if args.count < 1:
        raise CliError(2, "bad-arguments", "--count must be >= 1")
    seed = params.seed if args.seed is None else args.seed
    rng = random.Random(seed)
    w = params.publics[0]
    if args.word == "right":
        anchor = sample_finite_member(params.left_families[0], rng)
        s = sample_right_marginal(anchor, args.count, params.l, rng)
    elif args.word == "left":
        anchor = sample_finite_member(params.right_families[0], rng)
        s = sample_left_marginal(anchor, args.count, params.l, rng)
    elif args.word == "sandwich":
        q = sample_finite_member(params.right_families[0], rng)
        p = sample_finite_member(params.left_families[0], rng)
        s = sample_sandwich_marginal(mat_mul(q, p), args.count, params.l1, params.l2, rng)
    elif args.word == "five-factor":
        p = sample_finite_member(params.left_families[0], rng)
        q = sample_finite_member(params.right_families[0], rng)
        s = sample_five_factor_marginal(p, w, q, args.count, params.l1, params.l2, rng)
    else:  # additive
        anchor = sample_family_member(params.left_families[0], rng)
        s = sample_additive_marginal(anchor, args.count, params.l, rng)
    data = encode_marginal_set(s, encoding=args.encoding)
    write_bytes(args.out, data)
    _print(f"marginal set written to {args.out}: {len(s)} tuple(s), word {args.word}")
    return 0


def _cmd_verify_marginal(args) -> int:
    s = decode_marginal_set(read_bytes(args.set_file))
    if args.word_file is not None:
        word = decode_word(read_bytes(args.word_file))
        try:
            bad = [k for k, t in enumerate(s.tuples) if not verify_marginal(word, t)]
        except (TypeError, ValueError) as e:
            raise CliError(2, "malformed-input", f"word does not fit the set: {e}")
        if bad:
            raise CliError(
                1, "verification-failed", f"tuples at indices {bad} fail under the given word"
            )
    _print(f"all {len(s)} tuple(s) verify")
    return 0


_RUNNERS = {
    "sidelnikov": run_sidelnikov,
    "one-sided": run_protocol_one_sided,
    "sandwich": run_protocol_sandwich,
    "multiblock": run_protocol_multiblock,
}


def _cmd_run_protocol(args) -> int:
    params = _load_params(args.params)
    seed = params.seed if args.seed is None else args.seed
    if args.blocks is not None:
        if args.protocol != "multiblock":
            raise CliError(2, "bad-arguments", "--blocks applies to multiblock only")
        if args.blocks < 1:
            raise CliError(2, "bad-arguments", "--blocks must be >= 1")
        if params.blocks == 1 and args.blocks > 1:
            if params.script is not None:
                raise CliError(2, "bad-arguments", "scripted params fix their block count")
            params = replace(
                params,
                publics=params.publics * args.blocks,
                left_families=params.left_families * args.blocks,
                right_families=params.right_families * args.blocks,
            )
        elif params.blocks != args.blocks:
            raise CliError(
                2,
                "bad-arguments",
                f"params hold {params.blocks} block(s), cannot reshape to {args.blocks}",
            )
    params = replace(params, seed=seed)
    try:
        transcript = _RUNNERS[args.protocol](params, random.Random(seed))
    except ValueError as e:
        raise CliError(2, "bad-arguments", str(e))
    write_bytes(args.out, encode_transcript(transcript))
    if not transcript.agreed:
        raise CliError(1, "keys-disagree", "the two derived keys differ")
    _print(f"transcript written to {args.out}: {args.protocol}, keys agree")
    return 0


def _cmd_attack(args) -> int:
    transcript = decode_transcript(read_bytes(args.transcript))
    if args.degree < 0:
        raise CliError(2, "bad-arguments", "--degree must be >= 0")
    try:
        u = transcript.message("u")
        v = transcript.message("v")
    except KeyError as e:
        raise CliError(2, "malformed-input", f"transcript lacks message {e}")
    if not isinstance(u, Matrix) or not isinstance(v, Matrix):
        raise CliError(2, "bad-arguments", "attack needs single-matrix messages")
    left = transcript.params.left_families[0]
    right = transcript.params.right_families[0]
    if not isinstance(left, PolyFamily) or not isinstance(right, PolyFamily):
        raise CliError(2, "bad-arguments", "attack needs polynomial families on both sides")
    w = transcript.params.publics[0]
    left_basis = power_basis(left.base, args.degree)
    right_basis = power_basis(right.base, args.degree)
    decomposed = True
    candidate = None
    try:
        candidate, z_table = attack_decomposition(w, u, v, left_basis, right_basis)
    except NoDecomposition as e:
        decomposed = False
        z_table = e.z_table
    except ValueError as e:
        raise CliError(2, "bad-arguments", str(e))
    expected = transcript.key_a
    match = decomposed and candidate == expected
    report = {
        "protocol": transcript.protocol,
        "degree": args.degree,
        "kind": transcript.params.kind,
        "decomposed": decomposed,
        "match": match,
        "z": z_table,
        "candidate": candidate,
        "expected": expected,
    }
    write_bytes(args.out, encode_report(report))
    if not decomposed:
        _error_record(1, "no-decomposition", f"report written to {args.out}")
        return 1
    if not match:
        _error_record(1, "attack-missed", f"report written to {args.out}")
        return 1
    _print(f"report written to {args.out}: key recovered, matches transcript")
    return 0


def _cmd_selftest(args) -> int:
    rows = selfcheck.run_all()
    failures = 0
    for name, ok, detail in rows:
        if ok:
            _print(f"ok   {name}" + (f": {detail}" if args.verbose else ""))
        else:
            failures += 1
            _print(f"FAIL {name}: {detail}")
    _print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# Parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="tropmarg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-params", help="generate a parameter file")
    p.add_argument("--semiring", choices=["min-plus", "max-plus"], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--range", required=True, metavar="LO..HI")
    p.add_argument("--family", required=True, metavar="SPEC",
                   help="poly[:deg=D] | circulant | upper-t[:t=T] | lower-s[:s=S] "
                        "| jones[:den=N] | ldp[:r=R,k=K]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tuples", type=int, default=3)
    p.add_argument("--cap", type=int, default=150)
    p.add_argument("--pair-lo", type=int, default=-20)
    p.add_argument("--pair-hi", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_params)

    p = sub.add_parser("gen-marginal", help="sample a marginal set from params")
    p.add_argument("--word", required=True,
                   choices=["right", "left", "sandwich", "five-factor", "additive"])
    p.add_argument("--in", dest="in_file", required=True, metavar="PARAMS")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed stored in the params")
    p.add_argument("--encoding", choices=["raw", "interval", "delta"], default="raw")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_marginal)

    p = sub.add_parser("verify-marginal", help="check every tuple of a set file")
    p.add_argument("--set", dest="set_file", required=True, metavar="FILE")
    p.add_argument("--word", dest="word_file", default=None, metavar="FILE",
                   help="verify against this word instead of only the embedded one")
    p.set_defaults(handler=_cmd_verify_marginal)

    p = sub.add_parser("run-protocol", help="run a key agreement and write the transcript")
    p.add_argument("protocol", choices=list(_RUNNERS))
    p.add_argument("--params", required=True,
                   help="params file, or builtin:NAME for a bundled fixture")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_run_protocol)

    p = sub.add_parser("attack", help="decomposition attack on a transcript")
    p.add_argument("--transcript", required=True, metavar="FILE")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("selftest", help="run the golden-vector suite")
    p.add_argument("--verbose", "-v", action="store_true")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except CliError as e:
        _error_record(e.code, e.reason, e.detail)
        return e.code
    except MarginalVerificationError as e:
        _error_record(1, "verification-failed", str(e))
        return 1
    except WireFormatError as e:
        _error_record(2, "malformed-input", str(e))
        return 2
    except SamplerExhausted as e:
        _error_record(3, "sampler-exhausted", str(e))
        return 3
    except SelfCheckError as e:
        _error_record(1, "self-check-failed", str(e))
        return 1
    except OSError as e:
        _error_record(2, "io-error", str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
