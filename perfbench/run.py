"""tropmarg benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload pair-exchange --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics, each
time scaled to nominal host speed by fixed reference work sampled through
the run (see HostSpeed and README.md); with
``--trace 1`` it alternates untraced and traced passes over the digest
prefix and reports the per-layer metrics and the tracing overhead.  Every op
checks its output; a failed check, or an output digest that differs from
the one recorded for the default seed, makes the run exit 1.  The last line
of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

PACKAGE = "tropmarg"
LIB_MODULES = ("semiring", "matrix", "families", "constraints", "marginal",
               "protocols", "wire", "fixtures", "cli")
DEFAULT_SEED = 0
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
SETUP_REPEATS = 7
LOOP_CAP_S = 140.0  # hard stop for the timed loop, to end well within 180 s
REF_EVERY_S = 0.05  # between ops, one host-speed sample per this much time
REF_NEIGHBOURS = 9  # the samples nearest an op in time set its speed factor
REF_NOMINAL_S = 6.0e-4  # the warm reference's time at nominal host speed
COLD_REF_AROUND = 2  # cold-reference samples before and after each set-up
COLD_REF_NOMINAL_S = 0.02  # the cold reference's time at nominal host speed
DIGESTS = HERE / "digests.json"
SPANS_DIR = ROOT / ".perfbench-out"

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


# The references are fixed pieces of pure-Python work shaped like the
# library's: min-plus products of 7x7 int lists, then tuples in a dict.  They
# call no library code, so a change to the library cannot move them.
_REF_RNG = random.Random("perfbench-reference")
_REF_A = [[_REF_RNG.randint(-20, 20) for _ in range(7)] for _ in range(7)]
_REF_COLS = list(zip(*[[_REF_RNG.randint(-20, 20) for _ in range(7)] for _ in range(7)]))
_COLD_SOURCE = "\n".join(
    f"def f{i}(rows, cols, k={i}):\n"
    f"    out = [[min(x + y + k for x, y in zip(r, c)) for c in cols] for r in rows]\n"
    f"    d = {{(j, j % 7): tuple(out[j % len(out)]) for j in range(20)}}\n"
    f"    return sum(len(v) for v in d.values()) + out[0][0]\n"
    for i in range(80)
)


def reference() -> float:
    """Seconds for the warm reference, which matches the timed ops."""
    t0 = time.perf_counter()
    c = _REF_A
    for _ in range(6):
        c = [[min(x + y for x, y in zip(row, col)) % 97 - 40 for col in _REF_COLS] for row in c]
    d = {}
    for k in range(300):
        d[k, k % 7] = tuple(c[k % 7])
    return time.perf_counter() - t0


def cold_reference() -> float:
    """Seconds for the cold reference, which matches set-up: compile fresh
    source, then run each new function once, before the interpreter has
    specialised its code.  The warm reference slows down on a busy host
    about twice as much as set-up does; this one tracks set-up."""
    t0 = time.perf_counter()
    names: dict = {}
    exec(compile(_COLD_SOURCE, "<perfbench-reference>", "exec"), names)
    for i in range(80):
        names[f"f{i}"](_REF_A, _REF_COLS)
    return time.perf_counter() - t0


class HostSpeed:
    """Samples of the warm reference taken through the run.  The host's
    speed drifts by tens of percent, and at times by half, within seconds on
    a shared machine; dividing an op's time by the speed factor around it
    (the median of the nearest samples over REF_NOMINAL_S) gives its time
    at nominal host speed."""

    def __init__(self):
        self.times: list = []
        self.samples: list = []
        self.cold: list = []

    def sample(self, count: int = 1) -> None:
        """Time the reference `count` times, each right after an untimed
        call, so that it runs warm whether or not an op ran just before."""
        for _ in range(count):
            reference()
            self.times.append(time.perf_counter())
            self.samples.append(reference())

    def maybe_sample(self) -> None:
        """One sample for each REF_EVERY_S since the last one (at most
        REF_NEIGHBOURS), so that long ops get as close a window as short ones."""
        if not self.times:
            self.sample()
            return
        due = int((time.perf_counter() - self.times[-1]) / REF_EVERY_S)
        self.sample(min(due, REF_NEIGHBOURS))

    def factor(self, t: float) -> float:
        hi = min(len(self.times), max(bisect.bisect(self.times, t) + REF_NEIGHBOURS // 2 + 1,
                                      REF_NEIGHBOURS))
        lo = max(0, hi - REF_NEIGHBOURS)
        return statistics.median(self.samples[lo:hi]) / REF_NOMINAL_S

    def timed_setup(self, setup) -> tuple:
        """Run `setup` between cold-reference samples; returns its time as
        taken and at nominal host speed."""
        around = [cold_reference() for _ in range(COLD_REF_AROUND)]
        t0 = time.perf_counter()
        setup()
        taken = time.perf_counter() - t0
        around += [cold_reference() for _ in range(COLD_REF_AROUND)]
        self.cold += around
        return taken, taken * COLD_REF_NOMINAL_S / statistics.median(around)

    def summary(self) -> dict:
        """The samples' quartiles (a traced run takes no warm samples)."""
        out = {}
        for name, samples, nominal in (("warm", self.samples, REF_NOMINAL_S),
                                       ("cold", self.cold, COLD_REF_NOMINAL_S)):
            out[name] = {"samples": len(samples), "nominal": nominal}
            if len(samples) >= 2:
                out[name].update(zip(("q1", "median", "q3"), statistics.quantiles(samples, n=4)))
        return out


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_library():
    """Fresh import of the package: drop any loaded copy first, so that each
    set-up repetition pays the import again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    import importlib

    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LIB_MODULES}
    return type("Lib", (), mods)


class Run:
    """Counters of one run: attempts, failures by type, the start times and
    latencies of the ops that passed, and the time spent in all ops."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()
        self.starts: list = []
        self.latencies: list = []
        self.busy_s = 0.0

    def op(self, op, op_id, tracer=None):
        """Time one op, then check it.  Returns the op's artifact bytes, or a
        failure marker so that the digest still covers the op."""
        self.attempted += 1
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as e:  # an op failure is counted, and the loop goes on
            self.busy_s += time.perf_counter() - t0
            self.failures[type(e).__name__] += 1
            return f"failed:{type(e).__name__}".encode()
        finally:
            if tracer is not None:
                tracer.op = None
        latency = time.perf_counter() - t0
        self.busy_s += latency
        try:
            artifact = op.check(result)
        except Exception as e:  # a check that raises is a failed check
            what = str(e) if isinstance(e, CheckFailed) else type(e).__name__
            self.failures[f"check:{what}"] += 1
            return f"check-failed:{what}".encode()
        self.starts.append(t0)
        self.latencies.append(latency)
        if tracer is not None and op.recovered is not None:
            tracer.counts["protocols.attack.attempted"] += 1
            tracer.counts["protocols.attack.recovered"] += bool(op.recovered(result))
        return artifact

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def digest_update(h, i: int, label: str, artifact: bytes) -> None:
    h.update(f"{i} {label} {len(artifact)}\n".encode())
    h.update(artifact)


def timed_loop(workload, run: Run, speed: HostSpeed, seconds: float, prefix: int,
               min_ops: int) -> str:
    """Closed loop: op i+1 starts when op i has returned and been checked,
    with a host-speed sample between ops every REF_EVERY_S.  Runs until
    both `seconds` and `min_ops` are reached; returns the digest of the
    first `prefix` ops."""
    h = hashlib.sha256()
    start = time.perf_counter()
    i = 0
    while i < max(prefix, min_ops) or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > LOOP_CAP_S:
            break
        speed.maybe_sample()
        op = workload.op(i)
        artifact = run.op(op, i)
        if i < prefix:
            digest_update(h, i, op.label, artifact)
        i += 1
    speed.sample()
    return h.hexdigest()


def traced_passes(workload, run: Run, seconds: float, prefix: int):
    """Alternate untraced and traced passes over ops 0..prefix-1 while
    another pair of passes fits in `seconds` (at least one pair).  Returns
    the digests of all passes, the per-layer metrics, any wrappers left
    installed and the number of traced passes."""
    tracer = tracing.Tracer(PACKAGE)
    digests, plain_s, traced_s, self_times = [], [], [], []
    first_counts = None
    start = time.perf_counter()
    last = 0.0  # wall time of the latest pair of passes
    while not traced_s or time.perf_counter() - start + last < min(seconds, LOOP_CAP_S / 2):
        pair_start = time.perf_counter()
        for traced in (False, True):
            h = hashlib.sha256()
            first_span = len(tracer.spans)
            busy = run.busy_s
            if traced:
                tracer.install()
            try:
                for i in range(prefix):
                    op = workload.op(i)
                    digest_update(h, i, op.label, run.op(op, i, tracer if traced else None))
            finally:
                tracer.uninstall()
            digests.append(h.hexdigest())
            if traced:
                traced_s.append(run.busy_s - busy)
                self_times.append(tracer.self_seconds(first_span))
                if first_counts is None:
                    first_counts = Counter(tracer.counts)
            else:
                plain_s.append(run.busy_s - busy)
        last = time.perf_counter() - pair_start
    leftovers = tracer.leftovers()
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write_spans(str(SPANS_DIR / f"spans-{workload.name}-seed{workload.seed}.jsonl.gz"))
    names = set().union(*self_times)
    self_s = {n: statistics.median(t.get(n, 0.0) for t in self_times) for n in names}
    layers = tracing.layer_metrics(first_counts, self_s)
    layers["trace.ops_per_s_ratio"] = (statistics.median(plain_s) / statistics.median(traced_s), "ratio")
    return digests, layers, leftovers, len(traced_s)


def time_metrics(latencies: list, setup_s: list) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "setup_s": statistics.median(setup_s),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, ops: int | None = None) -> dict:
    """One benchmark run in this process; returns the result and the record.
    `ops` shrinks the digest prefix and the op minimum (for self-tests)."""
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        raise FileNotFoundError(f"no {PACKAGE} sources under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    speed = HostSpeed()
    cls = WORKLOADS[name]
    prefix = cls.prefix if ops is None else ops
    min_ops = MIN_OPS if ops is None else ops
    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    old_cwd = os.getcwd()
    os.chdir(workdir)
    run = Run()
    try:
        built = []

        def setup():
            workload = cls(import_library(), seed)
            workload.warm_up()
            built[:] = [workload]

        setup_s, setup_at_nominal = zip(*(speed.timed_setup(setup) for _ in range(SETUP_REPEATS)))
        workload = built[0]
        if trace:
            digests, layers, leftovers, passes = traced_passes(workload, run, seconds, prefix)
            digest = digests[0]
        else:
            digest = timed_loop(workload, run, speed, seconds, prefix, min_ops)
            digests, leftovers = [digest], []
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    gated = seed == DEFAULT_SEED and ops is None
    expected = json.loads(DIGESTS.read_text())["output_sha256"].get(name) if gated else None
    problems = []
    if run.failed:
        problems.append(f"{run.failed} failed op(s)")
    if len(set(digests)) != 1:
        problems.append("passes over the same ops produced different bytes")
    if gated and digest != expected:
        problems.append(f"output_sha256 {digest} differs from the recorded {expected}")
    if leftovers:
        problems.append(f"wrappers left installed: {leftovers}")

    lat = run.latencies
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "calibration_s": speed.summary(),
        "output_sha256": digest,
        "expected_sha256": expected,
        "attempted": run.attempted,
        "failures": dict(run.failures),
        "error_frac": run.failed / run.attempted if run.attempted else 0.0,
        "problems": problems,
    }
    if trace:
        metrics = layers
        record["traced_passes"] = passes
        timed = {k: v for k, (v, unit) in layers.items() if unit == "s"}
        record["largest_self_s"] = max(timed, key=timed.get) if timed else None
    else:
        at_nominal = [x / speed.factor(t + x / 2) for t, x in zip(run.starts, lat)]
        metrics = {
            **time_metrics(at_nominal, setup_at_nominal),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        record["as_timed"] = time_metrics(lat, setup_s)
        record["setup_runs_s"] = list(setup_s)
        record["op_samples"] = len(lat)
    return {
        "record": record,
        "result": {
            "correct": not problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="shrink the digest prefix and op minimum (self-tests only)")
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
    except (FileNotFoundError, ImportError) as e:
        print(f"perfbench: cannot load the library: {e}", file=sys.stderr)
        return 2
    record, result = out["record"], out["result"]
    print("record " + json.dumps(record, sort_keys=True))
    print(f"metric error_frac {record['error_frac']!r} ratio")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
