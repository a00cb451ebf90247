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
import subprocess
import sys

import pytest

from homeloop.config import load_builtin_suite
from homeloop.harness import TrialOptions, make_planner_factory, run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE_SEED = 3
GOLDEN_SHA256 = "2d3f75773e1e1bc1e13d560c4a9e0fdf2dd23dc1a6229a7562dda59d80e58ec9"

# Unit 0 of the benchmark's ``apartments`` workload at seed 21: ten generated
# two-room layouts of about 100x75 cells split by a wall with one doorway,
# which no bundled scene reaches. Recorded before grid search moved to
# bit-packed ints.
APARTMENTS_SEED = 21
APARTMENTS_SHA256 = "b9a6ccc634c741dba23aef0b1ecd66f2b9352bfedfedb28170a472425952df9c"

# The bundled suites at the same seed under each recovery ablation that
# ``tools/trace_digest.py`` runs. Only ``flags`` reaches visual-feedback-error
# verdicts and recovery's re-observation.
ABLATIONS = {
    "strict": (TrialOptions(strict_escalation=True),
               "a427425f732326c73f7aa9dad0d2c5b1469d251ed13e86f69c0c28797b648afd"),
    "no-recovery": (TrialOptions(recovery_enabled=False),
                    "a97cbd00bdd6fcb55825aded77f5ed379f553e44d096c97c2756bdfd3c4fd905"),
    "flags": (TrialOptions(noise={"p_flag_error": 0.3, "p_closeup_error": 0.3}),
              "f3221d5bf8f0f8986ff295aa76fb7879efcfb9a0d022585de8c50297193183c1"),
}


# One bundled suite, written to the directory named by the first argument.
_RUN_ACCEPTANCE = """
import sys
from homeloop.config import load_builtin_suite
from homeloop.harness import TrialOptions, make_planner_factory, run_suite
run_suite(load_builtin_suite("acceptance"), make_planner_factory("scripted"), out_dir=sys.argv[1], base_seed=3)
"""


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


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_ablation_trace_digest_is_unchanged(tmp_path, ablation):
    options, golden = ABLATIONS[ablation]
    for name in ("acceptance", "benchmark"):
        run_suite(load_builtin_suite(name), make_planner_factory("scripted"),
                  out_dir=str(tmp_path / name), options=options, base_seed=BASE_SEED)
    assert traces_digest(tmp_path) == golden


def test_apartments_trace_digest_is_unchanged(tmp_path):
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS["apartments"]
    for suite, base in workload.load(workload.docs(APARTMENTS_SEED, 0), APARTMENTS_SEED, 0):
        run_suite(suite, workload.planner_factory(), out_dir=str(tmp_path / suite.name), base_seed=base)
    assert traces_digest(tmp_path) == APARTMENTS_SHA256


def test_traces_do_not_depend_on_the_hash_seed(tmp_path):
    """str and frozenset hashes change with ``PYTHONHASHSEED``, and with them
    set and frozenset iteration order; no trace or report byte may."""
    written = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", _RUN_ACCEPTANCE, str(out)], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        written.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run_meta.json"})
    assert len(written[0]) == 42  # 40 traces and the two reports
    assert written[0] == written[1]
