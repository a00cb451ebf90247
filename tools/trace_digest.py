"""Print one SHA-256 digest of the traces and reports each suite or workload writes.

    python3 tools/trace_digest.py

Run it from the root of a checkout; it imports homeloop from that checkout's
``src`` and the workloads from its ``perfbench``. It runs:

- both bundled suites at base seed 3, as ``tests/test_trace_digest.py`` does;
- the ``bundled`` (1 unit), ``apartments`` and ``long_horizon`` (3 units
  each) workloads at seeds 21 and 22.

Each line is ``<name> <seed> <sha256>``. Two commits that print the same lines
write byte-identical traces and reports for those trials. ``run_meta.json``
holds a timestamp and is left out.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from homeloop.harness import load_builtin_suite, make_planner_factory, run_suite  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SUITES_BASE_SEED = 3
WORKLOAD_SEEDS = (21, 22)
UNITS = {"bundled": 1, "apartments": 3, "long_horizon": 3}


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run_meta.json"):
        h.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def suites_digest(out: Path) -> str:
    for name in ("acceptance", "benchmark"):
        run_suite(load_builtin_suite(name), make_planner_factory("scripted"),
                  out_dir=str(out / name), base_seed=SUITES_BASE_SEED)
    return digest(out)


def workload_digest(name: str, seed: int, out: Path) -> str:
    workload = WORKLOADS[name]
    factory = workload.planner_factory()
    for unit in range(UNITS[name]):
        for suite, base in workload.load(workload.docs(seed, unit), seed, unit):
            run_suite(suite, factory, out_dir=str(out / f"u{unit}" / suite.name), base_seed=base)
    return digest(out)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        print(f"suites {SUITES_BASE_SEED} {suites_digest(Path(tmp) / 'suites')}", flush=True)
        for name in UNITS:
            for seed in WORKLOAD_SEEDS:
                print(f"{name} {seed} {workload_digest(name, seed, Path(tmp) / f'{name}-{seed}')}", flush=True)


if __name__ == "__main__":
    main()
