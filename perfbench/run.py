"""homeloop benchmark: one workload per run, measured from outside the program.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The run imports homeloop from the
checkout's ``src`` and nowhere else, then:

1. times ``setup_s`` in fresh processes (``setup_probe.py``), median of five;
2. warms up on two tasks of a unit that is neither timed nor checked;
3. runs whole units of the workload (see ``workloads.py``) one trial at a
   time, through ``run_suite`` with an output directory: as many units as
   took ``--seconds`` when the benchmark was added, and at least 100
   trials. With ``--trace 1`` the span tracer is installed first; the trials
   are the same, so every count repeats exactly for a seed;
4. checks every trace it wrote (``checks.py``) and re-runs a sample of
   trials;
5. prints one line per metric, then one JSON object as the last line.

Every reported time is scaled to a reference host speed (``pace.py``); the
human-readable lines also give the raw wall-clock figures. Outputs go to
``perfbench/out/<workload>/``: the traces are deleted at the end of the run,
the spans of a traced run are kept in ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
sys.path[:0] = [SRC, ROOT]

from perfbench.pace import REFERENCE_IMPORT, REFERENCE_IMPORT_S, Pace  # noqa: E402  (stdlib only; safe before homeloop is found)

# A run executes a fixed number of units for its --seconds, so that two
# commits run exactly the same trials for a seed: the units each workload
# completed per second of scaled run_suite time when the benchmark was added,
# and at least 100 trials, so that ten lie beyond the 90th percentile.
UNITS_PER_SECOND = {"bundled": 0.27, "apartments": 0.44, "long_horizon": 1.9}
MIN_UNITS = {"bundled": 1, "apartments": 10, "long_horizon": 10}
MAX_LOOP_SECONDS = 120.0  # stops early on a very slow host, to end within 180 s
WARMUP_TASKS = 2
SETUP_PROBES = 5
RERUN_SAMPLE = 3

END_TO_END = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Import homeloop from this checkout's ``src``, or exit non-zero."""
    try:
        import homeloop
    except ImportError as exc:
        raise SystemExit(f"error: cannot import homeloop from {SRC}: {exc}")
    if not os.path.abspath(homeloop.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: homeloop was imported from {homeloop.__file__}, not from {SRC}")


@dataclass
class Trial:
    """What the checks need to find and re-run one trial."""

    path: str
    suite: Any
    task: Any
    seed: int
    index: int
    doc: Optional[dict]  # the generated task document, for generated workloads


def time_to_ready(command: list[str]) -> float:
    """Wall time from starting ``command`` to its first line, which must be
    ``ready``; waits for the process to end."""
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: {' '.join(command)} failed (exit {code}, said {line!r})")
    return elapsed


def setup_seconds(workload: str, inputs_path: str) -> tuple[float, float]:
    """(raw, scaled) wall time from starting a fresh interpreter to the set-up
    probe's ``ready`` line, scaled by the reference import timed just before."""
    reference = time_to_ready([sys.executable, "-c", REFERENCE_IMPORT])
    raw = time_to_ready([sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"), workload, inputs_path])
    return raw, raw * REFERENCE_IMPORT_S / reference


def rerun(trial: Trial, planner_factory, traced: bool) -> str:
    """Run one trial again, in this process, and return its trace text."""
    from homeloop import harness

    from perfbench.checks import serialize
    from perfbench.tracing import Tracer

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        options = harness.TrialOptions(noise=harness.resolve_noise_profile(trial.suite.noise_profile))
        report = harness.run_trial(trial.task, planner_factory(), trial.seed, trial.index, options)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return serialize(report)


def check_outputs(trials: list[Trial], workload, factory, seed: int, traced: bool) -> dict[int, list[str]]:
    """Problems found per trial index; see ``checks.py``."""
    from homeloop.planning import ScriptedPlanner

    from perfbench import checks

    rejected: dict[int, list[str]] = {}
    for i, trial in enumerate(trials):
        with open(trial.path, encoding="utf-8") as fh:
            text = fh.read()
        report, problems = checks.check_trace(text)
        if report is not None:
            if trial.suite.noise_profile == "zero" and report.outcome != "success":
                problems.append(f"zero-noise trial did not succeed: {report.reason}")
            if trial.doc is not None:
                problems += checks.check_generated_outcome(trial.doc, report)
        if problems:
            rejected[i] = problems
    sample = random.Random(f"rerun:{workload.name}:{seed}").sample(range(len(trials)), min(RERUN_SAMPLE, len(trials)))
    for i in sample:
        trial = trials[i]
        with open(trial.path, encoding="utf-8") as fh:
            text = fh.read()
        if rerun(trial, factory, traced=not traced) != text:
            rejected.setdefault(i, []).append("re-run with tracing toggled gives a different trace")
        if workload.planner == "chat" and rerun(trial, ScriptedPlanner, traced=False) != text:
            rejected.setdefault(i, []).append("the scripted planner's trace differs from the chat-driven one")
    return rejected


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("bundled", "apartments", "long_horizon"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from homeloop import harness

    from perfbench.tracing import Tracer, per_layer_metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    traces = os.path.join(out, "traces")
    pace = Pace()

    inputs_path = os.path.join(out, "inputs.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "docs": workload.docs(args.seed, 0)}, fh)
    setup = [setup_seconds(args.workload, inputs_path) for _ in range(SETUP_PROBES)]

    factory = workload.planner_factory()
    suite, base = workload.load(workload.docs(args.seed, -1), args.seed, -1)[0]
    warmup = dataclasses.replace(suite, tasks=suite.tasks[:WARMUP_TASKS])
    harness.run_suite(warmup, factory, out_dir=os.path.join(out, "warmup"), base_seed=base)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    starts: list[float] = []
    durations: list[float] = []
    real_run_trial = harness.run_trial

    def timed_run_trial(*a: Any, **kw: Any) -> Any:
        pace.sample()
        start = time.perf_counter()
        try:
            return real_run_trial(*a, **kw)
        finally:
            durations.append(time.perf_counter() - start)
            starts.append(start)

    harness.run_trial = timed_run_trial
    trials: list[Trial] = []
    lost = 0  # trials whose suite raised: run_suite returns no report for them
    errors: list[str] = []
    measured = 0.0  # run_suite wall time, reference-kernel runs excluded
    scaled_measured = 0.0
    planned = max(MIN_UNITS[args.workload], round(args.seconds * UNITS_PER_SECOND[args.workload]))
    loop_start = time.perf_counter()
    units = 0
    try:
        while units < planned and time.perf_counter() - loop_start < MAX_LOOP_SECONDS:
            docs = workload.docs(args.seed, units)
            doc_by_id = {d["id"]: d for d in docs}
            for j, (suite, base) in enumerate(workload.load(docs, args.seed, units)):
                suite_dir = os.path.join(traces, f"u{units}_{j}")
                before, paced = len(durations), sum(pace.seconds)
                start = time.perf_counter()
                try:
                    _, reports = harness.run_suite(suite, factory, out_dir=suite_dir, base_seed=base)
                except Exception as exc:  # a trial raised: the suite's reports are lost
                    lost += len(durations) - before
                    errors.append(f"unit {units} suite {suite.name}: {type(exc).__name__}: {exc}")
                    reports = []
                end = time.perf_counter()
                wall = end - start - (sum(pace.seconds) - paced)
                measured += wall
                scaled_measured += wall * pace.scale_between(start, end)
                tasks = {t.id: t for t in suite.tasks}
                for r in reports:
                    trials.append(
                        Trial(
                            path=os.path.join(suite_dir, r.task_id, f"{r.trial_index}.jsonl"),
                            suite=suite,
                            task=tasks[r.task_id],
                            seed=r.seed,
                            index=r.trial_index,
                            doc=doc_by_id.get(r.task_id),
                        )
                    )
                del reports
            units += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        harness.run_trial = real_run_trial
        if tracer is not None:
            tracer.uninstall()

    rejected = check_outputs(trials, workload, factory, args.seed, bool(args.trace))
    for i, problems in sorted(rejected.items()):
        for problem in problems:
            print(f"REJECTED {trials[i].path}: {problem}", file=sys.stderr)
    for error in errors:
        print(f"RAISED {error}", file=sys.stderr)

    raw_ms = [d * 1000.0 for d in durations]
    trial_ms = [d * pace.scale_at(s) * 1000.0 for s, d in zip(starts, durations)]
    print(
        f"{args.workload}: {len(durations)} trials, {units} units, {measured:.3f} s of run_suite time; "
        f"raw wall clock: {len(trials) / measured:.4g} trials/s, trial p50 {statistics.median(raw_ms):.4g} ms, "
        f"setup {statistics.median(s[0] for s in setup):.4g} s; "
        f"reference kernel median {statistics.median(pace.seconds) * 1000:.4g} ms"
    )
    if tracer is not None:
        tracer.write_spans(os.path.join(out, "spans.jsonl"))
        values = tracer.metrics(lambda start_ns: pace.scale_at(start_ns / 1e9))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}
        print(f"traced trial_ms_p50 {statistics.median(trial_ms):.6g} ms (compare with --trace 0 for the overhead)")
    else:
        values = {
            "trials_per_s": len(trials) / scaled_measured,
            "trial_ms_p50": statistics.median(trial_ms),
            "trial_ms_p90": statistics.quantiles(trial_ms, n=10)[8],
            "setup_s": statistics.median(s[1] for s in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    shutil.rmtree(traces, ignore_errors=True)
    shutil.rmtree(os.path.join(out, "warmup"), ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": not rejected,
                "attempted": len(durations),
                "failed": lost + len(rejected),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
