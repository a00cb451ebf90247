"""``tools/profile_workload.py``'s tally of trace lines and bytes by kind, and
its memory and garbage-collection figures."""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("profile_workload", os.path.join(ROOT, "tools", "profile_workload.py"))
profile_workload = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_workload)


def test_the_trace_tally_totals_the_files_lines_and_sizes(tmp_path):
    trials = profile_workload.run_units("bundled", 31, 1, tmp_path)
    lines, size = profile_workload.tally_traces(tmp_path)
    files = sorted(tmp_path.rglob("*.jsonl"))
    assert len(files) == trials == lines["header"] == lines["trial_end"]
    assert sum(lines.values()) == sum(f.read_bytes().count(b"\n") for f in files)
    assert sum(size.values()) == sum(f.stat().st_size for f in files)
    assert {"request", "feedback", "verdict"} <= set(lines)


def test_the_memory_figures_are_a_peak_what_is_held_and_collections_per_generation(tmp_path):
    peak, held, collections = profile_workload.measure_memory("bundled", 31, 1, tmp_path)
    assert 0 < held < peak
    assert len(collections) == 3 and all(n >= 0 for n in collections)
    assert len(list(tmp_path.rglob("*.jsonl"))) > 0
    assert not profile_workload.tracemalloc.is_tracing()
