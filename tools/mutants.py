"""Apply each kept mutant of ``tests/mutants.py`` to an export of a revision,
one at a time, run only that mutant's tests, and print whether it was killed.

    python3 tools/mutants.py [--rev HEAD]

``--rev`` is a git revision of this repository (default ``HEAD``), exported
with ``git archive`` into a temporary directory that is removed afterwards,
as ``tools/bench_pairs.py`` does. The registry is read from the export. A
mutant is killed when every test it names fails (pytest runs with
``--hypothesis-seed=0``); ``tools/trace_digest.py`` fails when it exits
non-zero or prints other lines than it does on the unmutated export.

Exits 1 when a mutant survives, 2 when a mutant's source text does not occur
exactly once in the export's ``src/``, in its module, or when
``tools/trace_digest.py`` fails on the unmutated export.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import time
from typing import Any, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# no bytecode is written, so a mutated module is always compiled afresh
ENV = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")


def load(name: str, path: str) -> Any:
    """The module at ``path``, loaded by path: this script's own name would
    shadow ``tests/mutants.py`` on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)  # type: ignore[arg-type]
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module


def trace_digest(tree: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "tools/trace_digest.py"], cwd=tree, env=ENV, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def surviving_tests(tree: str, tests: tuple[str, ...], digest: str, baseline: Optional[tuple[int, str]]) -> list[str]:
    """The named tests that did not fail; a test id that pytest did not
    collect neither passes nor fails, and survives too."""
    ids = [t for t in tests if t != digest]
    survivors = []
    if ids:
        cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", "--hypothesis-seed=0", *ids]
        out = subprocess.run(cmd, cwd=tree, env=ENV, capture_output=True, text=True).stdout.splitlines()
        failed = {line.split(" ")[1] for line in out if line.startswith(("FAILED ", "ERROR "))}
        survivors = [t for t in ids if t not in failed]
    if digest in tests:
        if trace_digest(tree) == baseline:  # exit status 0 and the same lines
            survivors.append(digest)
    return survivors


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="a git revision of this repository (default: HEAD)")
    args = parser.parse_args(argv)
    start = time.monotonic()
    bench_pairs = load("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    with bench_pairs.export(args.rev) as (tree, _):
        kept = load("kept_mutants", os.path.join(tree, "tests", "mutants.py"))
        src = os.path.join(tree, "src")
        misplaced = [m.name for m in kept.MUTANTS
                     if kept.occurrences(src, m.source) != {os.path.join("homeloop", m.module): 1}]
        if misplaced:
            print(f"error: source text not found once in its module: {', '.join(misplaced)}", file=sys.stderr)
            return 2
        baseline = trace_digest(tree) if any(kept.TRACE_DIGEST in m.tests for m in kept.MUTANTS) else None
        if baseline is not None and baseline[0] != 0:
            print(f"error: {kept.TRACE_DIGEST} fails on the unmutated export", file=sys.stderr)
            return 2
        survived = 0
        for m in kept.MUTANTS:
            began = time.monotonic()
            path = os.path.join(src, "homeloop", m.module)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(m.source, m.replacement))
            try:
                alive = surviving_tests(tree, m.tests, kept.TRACE_DIGEST, baseline)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            verdict = f"SURVIVED ({', '.join(alive)} did not fail)" if alive else "killed"
            print(f"{m.name}: {verdict} in {time.monotonic() - began:.1f} s", flush=True)
            survived += bool(alive)
    print(f"{len(kept.MUTANTS) - survived}/{len(kept.MUTANTS)} killed in {time.monotonic() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
