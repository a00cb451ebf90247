"""Profile one workload in-process under cProfile.

    python3 tools/profile_workload.py long_horizon 5 3
    python3 tools/profile_workload.py apartments 64 2

Run it from the root of a checkout; it imports homeloop from that checkout's
``src`` and the workloads from its ``perfbench`` (read-only). It runs units
``0 .. units-1`` of the workload at the seed, each suite through
``run_suite`` with an output directory, as the benchmark does, and prints
the top ``TOP`` functions by self time and by cumulative time. Traces go to a
temporary directory that is deleted afterwards.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from homeloop.harness import run_suite  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

TOP = 20  # functions listed per table


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
        trials = run_units(args.workload, args.seed, args.units, Path(tmp))
        profile.disable()
    stats = pstats.Stats(profile, stream=sys.stdout)
    print(f"{args.workload} seed {args.seed}: {args.units} unit(s), {trials} trial(s), "
          f"{stats.total_tt:.3f} s profiled")
    for order, title in (("tottime", "self time"), ("cumulative", "cumulative time")):
        print(f"\n=== top {TOP} by {title} ===")
        stats.sort_stats(order).print_stats(TOP)


if __name__ == "__main__":
    main()
