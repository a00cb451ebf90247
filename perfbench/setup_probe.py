"""Set-up probe: the work a fresh process does before its first trial.

Run as ``python3 perfbench/setup_probe.py <workload> <inputs.json>``. It
imports homeloop from the checkout, parses and validates the workload's first
unit of inputs, prints ``ready`` and exits. ``run.py`` times it from process
start to that line; the inputs were generated beforehand, so the timing
excludes the benchmark's own input generation.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main() -> None:
    from perfbench.workloads import WORKLOADS

    name, path = sys.argv[1], sys.argv[2]
    with open(path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    WORKLOADS[name].load(inputs["docs"], inputs["seed"], 0)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
