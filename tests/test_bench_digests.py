"""The benchmark's recorded seed-0 output digests, reproduced in process.

For each workload in perfbench/workloads.py, the ops of the digest prefix
run through perfbench/run.py's Run.op and digest_update, as
`perfbench/run.py --seed 0` runs them (without the timing), and the digest
must equal the one in perfbench/digests.json.  A change that alters any
output byte of any workload fails here.  The test only reads the benchmark's
files; the cli-files ops write into a temporary directory.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


def _load_run():
    # run.py turns off bytecode writing and imports its siblings by bare name
    dont_write = sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.dont_write_bytecode = dont_write
    return run


run = _load_run()


def _library():
    """The namespace the workloads call into, from the tropmarg modules this
    process has imported (run.import_library would drop and re-import them)."""
    modules = {name: importlib.import_module(f"{run.PACKAGE}.{name}") for name in run.LIB_MODULES}
    return type("Lib", (), modules)


@pytest.mark.parametrize("name", sorted(DIGESTS["output_sha256"]))
def test_seed_zero_digest_matches_the_record(monkeypatch, tmp_path, name):
    assert DIGESTS["seed"] == run.DEFAULT_SEED == 0
    monkeypatch.chdir(tmp_path)
    cls = run.WORKLOADS[name]
    workload = cls(_library(), DIGESTS["seed"])
    bench = run.Run()
    h = hashlib.sha256()
    for i in range(cls.prefix):
        op = workload.op(i)
        run.digest_update(h, i, op.label, bench.op(op, i))
    assert bench.failed == 0, dict(bench.failures)
    assert bench.attempted == cls.prefix
    assert h.hexdigest() == DIGESTS["output_sha256"][name]
