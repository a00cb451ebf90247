"""Profile one workload in-process under cProfile.

    python3 tools/profile_workload.py long_horizon 5 3
    python3 tools/profile_workload.py apartments 64 2

Run it from the root of a checkout; it imports homeloop from that checkout's
``src`` and the workloads from its ``perfbench`` (read-only). It runs units
``0 .. units-1`` of the workload at the seed, each suite through
``run_suite`` with an output directory, as the benchmark does, and prints
the top ``TOP`` functions by self time and by cumulative time. It then runs
the same units again, unprofiled and from an empty geometry cache, with
``PackedGrid.reach`` and ``PackedGrid.nearest`` wrapped to count the BFS
layers they grow, and prints them in total and by caller (``_sense``,
``PackedGrid.nearest``, ``OccupancyGrid.flood_fill``). It runs them once
more, unprofiled and with the geometry cache as the profiled run left it,
under ``tracemalloc``, and prints the peak of memory traced, the memory
still traced once the units have returned (after a collection), and the
garbage collections each generation ran (``gc.get_stats()``). Last it
prints the lines and bytes of the profiled run's traces by kind:
``header``, each event kind (the footer's is ``trial_end``) and the total,
with each kind's share of the bytes. Traces go to a temporary directory
that is deleted afterwards.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from homeloop.geometry import PackedGrid  # noqa: E402
from homeloop.harness import run_suite  # noqa: E402
from homeloop.world import geometry_cache  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

TOP = 20  # functions listed per table
LAYER_CALLERS = ("_sense", "nearest", "flood_fill")  # the callers BFS layers are counted under


def run_units(name: str, seed: int, units: int, out: Path) -> int:
    """Run the workload's units and return the number of trials."""
    workload = WORKLOADS[name]
    factory = workload.planner_factory()
    trials = 0
    for unit in range(units):
        for suite, base in workload.load(workload.docs(seed, unit), seed, unit):
            _, reports = run_suite(suite, factory, out_dir=str(out / f"u{unit}" / suite.name), base_seed=base)
            trials += len(reports)
    return trials


def count_layers(name: str, seed: int, units: int, out: Path) -> Counter:
    """Run the workload's units from an empty geometry cache with
    ``PackedGrid.reach`` and ``PackedGrid.nearest`` wrapped, and return the
    BFS layers they grew by the innermost caller named in ``LAYER_CALLERS``
    ("other" when none is). Each wrapped call counts its layers by
    replaying ``PackedGrid.layers``, the reference BFS, on its arguments."""
    counts: Counter = Counter()
    reach, nearest = PackedGrid.reach, PackedGrid.nearest

    def count(frame, layers) -> None:
        while frame is not None and frame.f_code.co_name not in LAYER_CALLERS:
            frame = frame.f_back
        counts[frame.f_code.co_name if frame is not None else "other"] += sum(1 for _ in layers)

    def counted_reach(self, passable, start, keep=0):
        count(sys._getframe(1), self.layers(passable, start))
        return reach(self, passable, start, keep)

    def counted_nearest(self, passable, start, goal):
        counts["nearest"] += sum(1 for _ in self.layers(passable, start, goal))
        return nearest(self, passable, start, goal)

    geometry_cache.cache_clear()
    PackedGrid.reach, PackedGrid.nearest = counted_reach, counted_nearest
    try:
        run_units(name, seed, units, out)
    finally:
        PackedGrid.reach, PackedGrid.nearest = reach, nearest
    return counts


def measure_memory(name: str, seed: int, units: int, out: Path) -> tuple[int, int, list[int]]:
    """Run the workload's units under ``tracemalloc`` and return the peak of
    bytes traced, the bytes still traced after they return and a collection,
    and the collections each garbage-collector generation ran meanwhile."""
    before = [generation["collections"] for generation in gc.get_stats()]
    tracemalloc.start()
    try:
        run_units(name, seed, units, out)
        collections = [generation["collections"] - n for generation, n in zip(gc.get_stats(), before)]
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held, collections


def tally_traces(root: Path) -> tuple[Counter, Counter]:
    """The lines and the bytes of the trace files under ``root``, by kind:
    ``header`` for a file's first line, else the line's ``event``. A line's
    bytes include its newline, so the totals are the files' line counts and
    sizes."""
    lines: Counter = Counter()
    size: Counter = Counter()
    for path in sorted(root.rglob("*.jsonl")):
        with open(path, "rb") as fh:
            for i, raw in enumerate(fh):
                kind = "header" if i == 0 else json.loads(raw)["event"]
                lines[kind] += 1
                size[kind] += len(raw)
    return lines, size


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("units", type=int)
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("units must be at least 1")

    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp:
        profile.enable()
        trials = run_units(args.workload, args.seed, args.units, Path(tmp) / "profiled")
        profile.disable()
        lines, size = tally_traces(Path(tmp) / "profiled")
        peak, held, collections = measure_memory(args.workload, args.seed, args.units, Path(tmp) / "measured")
        layers = count_layers(args.workload, args.seed, args.units, Path(tmp) / "counted")
    stats = pstats.Stats(profile, stream=sys.stdout)
    print(f"{args.workload} seed {args.seed}: {args.units} unit(s), {trials} trial(s), "
          f"{stats.total_tt:.3f} s profiled")
    for order, title in (("tottime", "self time"), ("cumulative", "cumulative time")):
        print(f"\n=== top {TOP} by {title} ===")
        stats.sort_stats(order).print_stats(TOP)
    print(f"\n=== BFS layers grown (PackedGrid.reach and nearest) ===\ntotal {sum(layers.values())}")
    for caller, count in sorted(layers.items()):
        print(f"{caller} {count}")
    print("\n=== memory and garbage collection (unprofiled run) ===")
    print(f"tracemalloc peak {peak / 1e6:.3f} MB\nheld after {held / 1e6:.3f} MB")
    print("gc collections " + " ".join(f"gen{i} {n}" for i, n in enumerate(collections)))
    total = sum(size.values())
    print("\n=== trace lines and bytes by kind (kind lines bytes share) ===")
    for kind in sorted(size, key=lambda k: (-size[k], k)):
        print(f"{kind} {lines[kind]} {size[kind]} {size[kind] / total:.1%}")
    print(f"total {sum(lines.values())} {total}")


if __name__ == "__main__":
    main()
