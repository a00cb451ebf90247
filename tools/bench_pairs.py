"""Benchmark two checkouts against each other in alternating pairs and write
the record as one ``BENCH_*.json``.

    python3 tools/bench_pairs.py --parent ../parent --change . --seed 257 \\
        --workload apartments=10 --workload bundled=4 --traced-seed 31 \\
        --claim apartments:trials_per_s:1.6 --out BENCH_example.json

``--parent`` and ``--change`` each name a checkout's root, for example a
clone of the parent commit or the working tree, or a git revision of this
repository (``HEAD~1``, a branch, a commit id). A revision is exported with
``git archive`` into a temporary directory, which is removed afterwards. Each
pair runs ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in each checkout, one run at a time: even pairs run the
parent first, odd pairs the change first. With ``--traced-seed`` each
workload then gets one ``--trace 1`` run per side, whose per-layer spans and
counts are recorded as well.

The record holds ``what``, ``parent`` and ``change`` (a revision's full commit
id; a checkout's commit, marked when its tree has uncommitted edits, or its
path when it is not a git checkout), ``src_lines`` (each side's line count of
the Python files under ``src/homeloop``), the host, an optional
``claim`` (its pairs won and ``met``: whether the median ratio reaches the
target), a ``summary`` per workload and metric (medians, change/parent
ratio, pairs won, the parent's interquartile range and its max-min spread
over its median), the per-pair ``workloads`` and the ``traced`` runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from typing import Any, Iterator, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WIN_RULE = ("a pair is won by the change when its trials_per_s is higher, or its time or peak RSS lower, "
            "than the parent's in the same pair; ties count for neither")


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """One ``perfbench/run.py`` process in ``checkout``: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def values(result: dict[str, Any]) -> dict[str, float]:
    return {name: round(m["value"], 4) for name, m in result["metrics"].items()}


def revision(checkout: str) -> str:
    """The checkout's commit, or its path when it is not a git checkout."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    if head.returncode != 0:
        return os.path.abspath(checkout)
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout,
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes" if dirty else "")


@contextlib.contextmanager
def checkout(ref: str, repo: str = ROOT) -> Iterator[tuple[str, str]]:
    """The root to run ``ref`` in and the name its record gives it: a
    directory is itself, named by ``revision``; anything else is a git
    revision of ``repo``, exported into a temporary directory for the
    duration and named by its full commit id."""
    if os.path.isdir(ref):
        yield ref, revision(ref)
        return
    with export(ref, repo) as exported:
        yield exported


@contextlib.contextmanager
def export(ref: str, repo: str = ROOT) -> Iterator[tuple[str, str]]:
    """A temporary ``git archive`` export of the git revision ``ref`` of
    ``repo``, removed afterwards, and the revision's full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"], cwd=repo,
                            capture_output=True, text=True).stdout.strip()
    if not commit:
        raise SystemExit(f"error: {ref!r} is not a git revision of {repo}")
    with tempfile.TemporaryDirectory(prefix="export-") as tree:
        archive = subprocess.run(["git", "archive", commit], cwd=repo, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        yield tree, commit


def src_lines(root: str) -> int:
    """The newlines in the Python files under ``root``'s ``src/homeloop``, as
    ``wc -l`` counts them."""
    total = 0
    for folder, _, files in os.walk(os.path.join(root, "src", "homeloop")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def host() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return f"{os.cpu_count()}-core {model}"


def higher_is_better(checkout: str) -> dict[str, bool]:
    """Per end-to-end metric of the checkout's ``BENCHMARK.json``: whether a
    larger value is better."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["better"] == "higher" for m in json.load(fh)["end_to_end"]}


def summarise(pairs: list[dict[str, Any]], higher_better: dict[str, bool]) -> dict[str, dict[str, Any]]:
    """Per metric: both medians, their ratio, pairs won, and the parent's
    interquartile range and (max - min) / median."""
    out = {}
    for name, higher in higher_better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        median = statistics.median(parent)
        q = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else [median] * 3
        out[name] = {
            "parent_median": round(median, 4),
            "change_median": round(statistics.median(change), 4),
            "ratio": round(statistics.median(change) / median, 4),
            "pairs_won": f"{won}/{len(pairs)}",
            "parent_iqr": round(q[2] - q[0], 4),
            "parent_spread": round((max(parent) - min(parent)) / median, 4),
        }
    return out


def claim(summary: dict[str, dict[str, Any]], workload: str, metric: str, target: float,
          higher: bool) -> dict[str, Any]:
    """The claimed gain and whether the median ratio meets it: at least
    ``target`` when higher is better, at most ``target`` otherwise."""
    result = summary[workload][metric]
    return {
        "metric": metric,
        "workload": workload,
        "target": f"{'>=' if higher else '<='} {target:g}x the parent's median",
        "result": result,
        "pairs_won": result["pairs_won"],
        "met": result["ratio"] >= target if higher else result["ratio"] <= target,
    }


def run_pairs(parent: str, change: str, workload: str, n: int, seed: int, seconds: float) -> list[dict[str, Any]]:
    pairs = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            results[side] = run_once(parent if side == "parent" else change, workload, seed, seconds, 0)
        pair = {
            "pair": i,
            "first": order[0],
            "parent": values(results["parent"]),
            "change": values(results["change"]),
            "correct": [results["parent"]["correct"], results["change"]["correct"]],
            "failed": [results["parent"]["failed"], results["change"]["failed"]],
        }
        print(f"{workload} pair {i}: parent {pair['parent']['trials_per_s']} change "
              f"{pair['change']['trials_per_s']} trials/s", file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def run_traced(parent: str, change: str, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    results = {side: run_once(path, workload, seed, seconds, 1) for side, path in (("parent", parent), ("change", change))}
    parent_values, change_values = values(results["parent"]), values(results["change"])
    return {
        "seed": seed,
        "correct": [results["parent"]["correct"], results["change"]["correct"]],
        "failed": [results["parent"]["failed"], results["change"]["failed"]],
        "parent": parent_values,
        "change": change_values,
        "count_metrics_that_differ": sorted(
            name for name in parent_values
            if not name.endswith("ms") and parent_values[name] != change_values.get(name)
        ),
    }


def compare(args: argparse.Namespace, parent: tuple[str, str], change: tuple[str, str]) -> dict[str, Any]:
    """The record of ``args``' runs in the ``(root, name)`` checkouts."""
    plan = [(name, int(n)) for name, n in (w.split("=") for w in args.workload)]
    higher_better = higher_is_better(change[0])

    record: dict[str, Any] = {
        "what": (
            f"homeloop benchmark, parent vs change: alternating untraced pairs (python3 perfbench/run.py "
            f"--workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0; even pairs run the parent "
            f"first, odd pairs the change first)"
            + (f" and one traced run per side and workload (--seed {args.traced_seed} --trace 1)"
               if args.traced_seed is not None else "")
            + ". Times are scaled by perfbench/pace.py; peak_rss_mb is raw."
        ),
        "parent": parent[1],
        "change": change[1],
        "src_lines": {"parent": src_lines(parent[0]), "change": src_lines(change[0])},
        "python": platform.python_version(),
        # from the package metadata, not an import: Linux carries a process's
        # peak RSS across exec into every run.py it starts, so importing numpy
        # here would floor each run's peak_rss_mb at this process's ~29 MB
        "numpy": metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "host": host(),
        "summary_win_rule": WIN_RULE,
        "summary": {},
        "workloads": {},
    }
    for name, n in plan:
        pairs = run_pairs(parent[0], change[0], name, n, args.seed, args.seconds)
        record["workloads"][name] = {"seed": args.seed, "pairs": pairs}
        record["summary"][name] = summarise(pairs, higher_better)
    if args.claim is not None:
        workload, metric, target = args.claim.split(":")
        record["claim"] = claim(record["summary"], workload, metric, float(target), higher_better[metric])
    if args.traced_seed is not None:
        record["traced"] = {name: run_traced(parent[0], change[0], name, args.traced_seed, args.seconds)
                            for name, _ in plan}
    return record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent's checkout, or a git revision")
    parser.add_argument("--change", default=ROOT,
                        help="root of the changed checkout, or a git revision (default: this checkout)")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME=PAIRS",
                        help="a workload and its number of alternating pairs; repeatable")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced-seed", type=int, help="also one --trace 1 run per side and workload")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC:RATIO",
                        help="the claimed gain, e.g. apartments:trials_per_s:1.6")
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    args = parser.parse_args(argv)
    with checkout(args.parent) as parent, checkout(args.change) as change:
        record = compare(args, parent, change)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, metrics in record["summary"].items():
        for metric, s in metrics.items():
            print(f"{name} {metric}: {s['parent_median']} -> {s['change_median']} "
                  f"(x{s['ratio']}, won {s['pairs_won']})")
    if "claim" in record:
        c = record["claim"]
        print(f"claim {c['workload']} {c['metric']} {c['target']}: {'met' if c['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
