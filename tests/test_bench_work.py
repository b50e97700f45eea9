"""The benchmark's traced work counts on the seed-0 digest prefix, pinned.

For each workload in perfbench/workloads.py, the ops of the digest prefix
run once untraced and then once under perfbench/tracing.py's Tracer, as one
pair of `perfbench/run.py --trace 1` passes does (`run.traced_passes`).  The
untraced pass comes first because the library keeps what it forms across
ops (`matrix.powers` keeps each power on its base), so the traced pass sees
the state the benchmark's traced passes see.  Every count the tracer keeps
(each span's calls, `mat_mul` scalar ops, word evaluations, residual
entries, wire bytes, sampler requested and delivered tuples, ...) must equal
the one in tests/bench_work.json.  A change that alters the work updates
that file in the same commit:

    PYTHONPATH=src python tests/test_bench_work.py

The second test reruns the digest test in a fresh interpreter under another
PYTHONHASHSEED: the outputs must not depend on string hashing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_bench_digests import DIGESTS, _library, run

HERE = Path(__file__).resolve().parent
WORK = HERE / "bench_work.json"


def traced_counts(name: str) -> dict:
    cls = run.WORKLOADS[name]
    workload = cls(_library(), DIGESTS["seed"])
    bench = run.Run()
    tracer = run.tracing.Tracer(run.PACKAGE)
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            for i in range(cls.prefix):
                bench.op(workload.op(i), i, tracer if traced else None)
        finally:
            tracer.uninstall()
    assert bench.failed == 0, dict(bench.failures)
    return dict(sorted(tracer.counts.items()))


@pytest.mark.parametrize("name", sorted(DIGESTS["output_sha256"]))
def test_traced_work_matches_the_record(monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    assert traced_counts(name) == json.loads(WORK.read_text())[name]


def test_digests_do_not_depend_on_the_hash_seed():
    seed = "5" if os.environ.get("PYTHONHASHSEED") == "777" else "777"
    src = str(HERE.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(HERE / "test_bench_digests.py")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        counts = {name: traced_counts(name) for name in sorted(DIGESTS["output_sha256"])}
    WORK.write_text(json.dumps(counts, indent=2) + "\n")
