"""Golden digests of the bundled suites' traces and of one ``apartments`` unit.

Any change to world dynamics, perception, planning or trace layout moves
this digest. A change meant to be a pure optimisation must leave it as is.
``run_meta.json`` carries a wall-clock timestamp and is left out.

The digest was re-recorded once, when trace schema @2 restricted verdict
evidence to what each verdict reads; ``tests/test_trace_evidence.py`` shows
that this moved no behaviour.
"""

from __future__ import annotations

import hashlib
import os
import sys

from homeloop.harness import load_builtin_suite, make_planner_factory, run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE_SEED = 3
GOLDEN_SHA256 = "2d3f75773e1e1bc1e13d560c4a9e0fdf2dd23dc1a6229a7562dda59d80e58ec9"

# Unit 0 of the benchmark's ``apartments`` workload at seed 21: ten generated
# two-room layouts of about 100x75 cells split by a wall with one doorway,
# which no bundled scene reaches. Recorded before grid search moved to
# bit-packed ints.
APARTMENTS_SEED = 21
APARTMENTS_SHA256 = "b9a6ccc634c741dba23aef0b1ecd66f2b9352bfedfedb28170a472425952df9c"


def traces_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.jsonl")):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def test_bundled_trace_digest_is_unchanged(tmp_path):
    for name in ("acceptance", "benchmark"):
        run_suite(load_builtin_suite(name), make_planner_factory("scripted"),
                  out_dir=str(tmp_path / name), base_seed=BASE_SEED)
    assert traces_digest(tmp_path) == GOLDEN_SHA256


def test_apartments_trace_digest_is_unchanged(tmp_path):
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS["apartments"]
    for suite, base in workload.load(workload.docs(APARTMENTS_SEED, 0), APARTMENTS_SEED, 0):
        run_suite(suite, workload.planner_factory(), out_dir=str(tmp_path / suite.name), base_seed=base)
    assert traces_digest(tmp_path) == APARTMENTS_SHA256
