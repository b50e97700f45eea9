"""Timing wrappers around the library's public functions, for traced runs only.

``Tracer.install`` rebinds every attribute of every loaded ``tropmarg``
module that is bound to a wrapped function object, including values of
module-level dicts (``cli._RUNNERS``), because ``from .matrix import
mat_mul`` copies the binding into each importing module and calls inside a
module go through its own globals.  ``WordTemplate.evaluate`` is counted at
class level.  ``uninstall`` puts every original back.

Spans (name, start ns, end ns, parent span, op id) are kept in memory and
recorded only while an op runs, so the benchmark's own checks stay out.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

SAMPLERS = (
    "sample_right_marginal",
    "sample_left_marginal",
    "sample_sandwich_marginal",
    "sample_five_factor_marginal",
    "sample_n_factor_marginal",
    "sample_additive_marginal",
)
RUNNERS = (
    "run_sidelnikov",
    "run_protocol_one_sided",
    "run_protocol_sandwich",
    "run_protocol_multiblock",
)
RESIDUALS = (
    "residual_right",
    "residual_left",
    "two_sided_residual",
    "five_factor_residual",
    "n_factor_residual",
)
WIRE_OBJECTS = ("matrix", "word", "marginal_set", "params", "transcript", "report")


def _all_int(m) -> bool:
    return all(type(x) is int for row in m.rows for x in row)


def _residual_entries(fn_name: str, args) -> int:
    if fn_name == "n_factor_residual":
        chain = list(args[0])
        return chain[0].dim ** (2 * (len(chain) - 1))
    k = args[0].dim
    return k * k if fn_name in ("residual_right", "residual_left") else k**4


def _requested(fn_name: str, args) -> int:
    return args[3] if fn_name == "sample_five_factor_marginal" else args[1]


def _span_table():
    """(module, function) -> (span name, hook).  A hook sees (tracer, args,
    result) after a call that did not recurse into its own span name."""

    def mat_mul(t, args, result):
        a, b = args
        t.counts["matrix.mat_mul.scalar_ops"] += a.dim**3
        t.counts["matrix.mat_mul.int_calls"] += _all_int(a) and _all_int(b)

    def solve(t, args, result):
        sys_ = args[0]
        t.counts["constraints.solve_feasible_min.edges"] += (
            len(sys_.sum_ge) + 2 * len(sys_.sum_eq) + len(sys_.lower)
        )
        t.counts["constraints.solve_feasible_min.infeasible"] += type(result).__name__ == "Infeasible"

    def residual(fn_name):
        def hook(t, args, result):
            t.counts["marginal.residual.entries"] += _residual_entries(fn_name, args)
        return hook

    def sampler(fn_name):
        def hook(t, args, result):
            t.counts[f"marginal.{fn_name}.requested"] += _requested(fn_name, args)
            t.counts[f"marginal.{fn_name}.delivered"] += len(result)
        return hook

    def encode(t, args, result):
        t.counts["wire.bytes_out"] += len(result)

    def decode(t, args, result):
        t.counts["wire.bytes_in"] += len(args[0])

    def cli_main(t, args, result):
        t.counts["cli.main.nonzero"] += result != 0

    table = {
        ("matrix", "mat_mul"): ("matrix.mat_mul", mat_mul),
        ("matrix", "mat_add"): ("matrix.mat_add", None),
        ("matrix", "dual"): ("matrix.dual", None),
        ("families", "sample_family_member"): ("families.sample_family_member", None),
        ("families", "commute_check"): ("families.commute_check", None),
        ("constraints", "solve_feasible_min"): ("constraints.solve_feasible_min", solve),
        ("marginal", "verify_marginal"): ("marginal.verify_marginal", None),
        ("protocols", "attack_decomposition"): ("protocols.attack_decomposition", None),
        ("wire", "read_bytes"): ("wire.io", None),
        ("wire", "write_bytes"): ("wire.io", None),
        ("cli", "main"): ("cli.main", cli_main),
    }
    for name in RESIDUALS:
        table[("marginal", name)] = ("marginal.residual", residual(name))
    for name in SAMPLERS:
        table[("marginal", name)] = (f"marginal.{name}", sampler(name))
    for name in RUNNERS:
        table[("protocols", name)] = (f"protocols.{name}", None)
    for obj in WIRE_OBJECTS:
        table[("wire", f"encode_{obj}")] = ("wire.encode", encode)
        table[("wire", f"decode_{obj}")] = ("wire.decode", decode)
    return table


class Tracer:
    def __init__(self, package: str = "tropmarg"):
        self.package = package
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None  # id of the running op; None outside ops
        self._stack: list = []
        self._restore: list = []

    # -- installation ---------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        originals, wrappers = [], {}  # originals stay referenced, so ids stay unique
        for (mod_name, fn_name), (span, hook) in _span_table().items():
            original = getattr(sys.modules[f"{self.package}.{mod_name}"], fn_name)
            originals.append(original)
            wrappers[id(original)] = self._wrap(span, original, hook)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module.__dict__, attr, value, wrappers[id(value)])
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._rebind(value, key, item, wrappers[id(item)])
        word = sys.modules[f"{self.package}.marginal"].WordTemplate
        self._restore.append((word, "evaluate", word.__dict__["evaluate"]))
        word.evaluate = self._count("marginal.word_evals", word.__dict__["evaluate"])

    def _rebind(self, namespace: dict, key, original, wrapper) -> None:
        self._restore.append((namespace, key, original))
        namespace[key] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore = []

    def leftovers(self) -> list:
        """Names still bound to a wrapper; empty after uninstall."""
        found = []
        for module in self._modules():
            for attr, value in vars(module).items():
                items = value.items() if type(value) is dict else [(None, value)]
                for key, item in items:
                    if getattr(item, "_perfbench_wrapper", False):
                        found.append(f"{module.__name__}.{attr}" + ("" if key is None else f"[{key!r}]"))
        word = sys.modules[f"{self.package}.marginal"].WordTemplate
        if getattr(word.__dict__["evaluate"], "_perfbench_wrapper", False):
            found.append("WordTemplate.evaluate")
        return found

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        tracer = self
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            recursive = bool(stack) and spans[stack[-1]][0] == name
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, tracer.op])
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if not recursive:
                tracer.counts[name + ".calls"] += 1
                if hook is not None:
                    hook(tracer, args, result)
            return result

        traced._perfbench_wrapper = True
        return traced

    def _count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted._perfbench_wrapper = True
        return counted

    # -- results ----------------------------------------------------------------

    def self_seconds(self, first: int = 0) -> dict:
        """Self time per span name over spans[first:], in seconds."""
        spans = self.spans
        child = defaultdict(int)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= first:
                child[parent] += end - start
        total = defaultdict(int)
        for idx in range(first, len(spans)):
            name, start, end, _, _ = spans[idx]
            total[name] += end - start - child[idx]
        return {name: ns / 1e9 for name, ns in total.items()}

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(counts: Counter, self_s: dict) -> dict:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out = {}

    def add(name, value, unit):
        out[name] = (value, unit)

    def calls(name):
        add(name + ".calls", counts[name + ".calls"], "count")

    def self_time(name):
        add(name + ".self_s", self_s.get(name, 0.0), "s")

    calls("matrix.mat_mul")
    self_time("matrix.mat_mul")
    add("matrix.mat_mul.scalar_ops", counts["matrix.mat_mul.scalar_ops"], "count")
    add("matrix.mat_mul.int_frac", ratio("matrix.mat_mul.int_calls", "matrix.mat_mul.calls"), "ratio")
    self_time("matrix.mat_add")
    calls("matrix.dual")
    calls("families.sample_family_member")
    self_time("families.sample_family_member")
    self_time("families.commute_check")
    calls("constraints.solve_feasible_min")
    self_time("constraints.solve_feasible_min")
    add("constraints.solve_feasible_min.edges", counts["constraints.solve_feasible_min.edges"], "count")
    add(
        "constraints.solve_feasible_min.infeasible_frac",
        ratio("constraints.solve_feasible_min.infeasible", "constraints.solve_feasible_min.calls"),
        "ratio",
    )
    self_time("marginal.residual")
    add("marginal.residual.entries", counts["marginal.residual.entries"], "count")
    calls("marginal.verify_marginal")
    self_time("marginal.verify_marginal")
    add("marginal.word_evals", counts["marginal.word_evals"], "count")
    for name in SAMPLERS:
        calls(f"marginal.{name}")
        self_time(f"marginal.{name}")
        add(
            f"marginal.{name}.delivered_frac",
            ratio(f"marginal.{name}.delivered", f"marginal.{name}.requested"),
            "ratio",
        )
    for name in RUNNERS + ("attack_decomposition",):
        calls(f"protocols.{name}")
        self_time(f"protocols.{name}")
    add("protocols.attack.recovered_frac", ratio("protocols.attack.recovered", "protocols.attack.attempted"), "ratio")
    self_time("wire.encode")
    self_time("wire.decode")
    add("wire.bytes_out", counts["wire.bytes_out"], "count")
    add("wire.bytes_in", counts["wire.bytes_in"], "count")
    self_time("wire.io")
    calls("cli.main")
    self_time("cli.main")
    add("cli.nonzero_exit_frac", ratio("cli.main.nonzero", "cli.main.calls"), "ratio")
    return out
