"""Golden digest of the bundled suites' traces.

Any change to world dynamics, perception, planning or trace layout moves
this digest. A change meant to be a pure optimisation must leave it as is.
``run_meta.json`` carries a wall-clock timestamp and is left out.
"""

from __future__ import annotations

import hashlib

from homeloop.harness import load_builtin_suite, make_planner_factory, run_suite

BASE_SEED = 3
GOLDEN_SHA256 = "4a8784daab1c8f700b4688b2c38d77035df5f0db001ed8238784e56e6cf81f6a"


def test_bundled_trace_digest_is_unchanged(tmp_path):
    for name in ("acceptance", "benchmark"):
        run_suite(load_builtin_suite(name), make_planner_factory("scripted"),
                  out_dir=str(tmp_path / name), base_seed=BASE_SEED)
    h = hashlib.sha256()
    for path in sorted(tmp_path.rglob("*.jsonl")):
        h.update(path.relative_to(tmp_path).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    assert h.hexdigest() == GOLDEN_SHA256
