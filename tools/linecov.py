"""Print each executable line of ``src/homeloop`` that tier-1 does not run.

    python3 tools/linecov.py [--rev HEAD]

``--rev`` is a git revision of this repository (default ``HEAD``), exported
with ``git archive`` into a temporary directory that is removed afterwards,
as ``tools/bench_pairs.py`` does. Tier-1 runs there in one pytest process
under a ``sys.settrace`` and ``threading.settrace`` line tracer; no coverage
package is needed. Tests that run homeloop in a subprocess are not counted.
A line is executable when a code object compiled from its module maps an
instruction to it (``co_lines``). Each line that did not run is printed as
``path:line: text``, except the lines that ``KEPT`` names with the reason
they stay; a summary goes to stderr.

Exits 1 when a line is printed, 2 when tier-1 fails in the export or a
``KEPT`` entry's text does not occur exactly once in its module.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from types import CodeType, FrameType
from typing import Any, Callable, NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Kept(NamedTuple):
    module: str  # relative to src/homeloop
    text: str  # the whole line, stripped; it occurs once in the module
    reason: str


TYPE_CHECKING_IMPORT = "imported for annotations only: `if TYPE_CHECKING` is false when the program runs"
PROTOCOL_BODY = "the body of a Protocol method: each implementation defines its own"
GUARD = "a guard kept for a caller that breaks its contract; no input reaches it"

KEPT = (
    Kept("world.py", "from .perception import Observation, SceneObject", TYPE_CHECKING_IMPORT),
    Kept("goals.py", "from .world import World", TYPE_CHECKING_IMPORT),
    Kept("skills.py", "from .verification import FailureRecord, SuccessVerdict", TYPE_CHECKING_IMPORT),
    Kept("planning/adapter.py", "...", PROTOCOL_BODY),
    Kept("planning/base.py", "...", PROTOCOL_BODY),
    Kept("cli.py", "sys.exit(main())", "runs only as `python -m homeloop.cli`; tests call `main` in-process"),
    # apply_action is reached only through the navigate, grasp and place skills
    Kept("world.py", 'raise ValueError(f"apply_action only handles execution verbs, got {request.verb!r}")', GUARD),
    # explore_local's callers scan only furniture of the global map, which is the world's
    Kept("perception.py", 'raise KeyError(f"explore_local target {receptacle_id!r} is not furniture")', GUARD),
)


def code_objects(code: CodeType) -> list[CodeType]:
    """``code`` and every code object nested in it."""
    found = [code]
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found.extend(code_objects(const))
    return found


def executable_lines(path: str) -> set[int]:
    """The lines of the module at ``path`` that some instruction maps to;
    a module's first instruction maps to line 0, which holds no text."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    return {line for code in code_objects(module) for _, _, line in code.co_lines() if line}


def line_tracer(prefix: str, ran: set[tuple[str, int]]) -> Callable[[FrameType, str, Any], Any]:
    """A ``sys.settrace`` function that adds to ``ran`` each (file, line) run
    in a file whose path starts with ``prefix``; other frames are not traced."""
    def local(frame: FrameType, event: str, arg: Any) -> Any:
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame: FrameType, event: str, arg: Any) -> Any:
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return call


def unrun(path: str, ran: set[int], kept: tuple[Kept, ...] = ()) -> list[tuple[int, str]]:
    """The executable lines of ``path`` that are not in ``ran`` and whose
    stripped text no entry of ``kept`` names, with that text."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read().splitlines()
    named = {k.text for k in kept}
    return [(line, text[line - 1].strip()) for line in sorted(executable_lines(path) - ran)
            if text[line - 1].strip() not in named]


def misplaced(src: str, kept: tuple[Kept, ...]) -> list[Kept]:
    """The entries whose text is not exactly one line of their module."""
    out = []
    for k in kept:
        with open(os.path.join(src, "homeloop", k.module), encoding="utf-8") as fh:
            if [line.strip() for line in fh].count(k.text) != 1:
                out.append(k)
    return out


# Run in an export's root with its src/ on the path: tier-1 under the line
# tracer; writes the lines run under src/homeloop as JSON to argv[1].
TRACED_TIER1 = """
import json, os, sys, threading
import importlib.util
spec = importlib.util.spec_from_file_location("linecov", sys.argv[2])
linecov = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecov)
import pytest
ran = set()
tracer = linecov.line_tracer(os.path.abspath(os.path.join("src", "homeloop")) + os.sep, ran)
threading.settrace(tracer)
sys.settrace(tracer)
try:
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
finally:
    sys.settrace(None)
    threading.settrace(None)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(sorted(ran), fh)
sys.exit(int(status))
"""


def load(name: str, path: str) -> Any:
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)  # type: ignore[arg-type]
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="a git revision of this repository (default: HEAD)")
    args = parser.parse_args(argv)
    start = time.monotonic()
    bench_pairs = load("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    with bench_pairs.export(args.rev) as (tree, _), tempfile.TemporaryDirectory(prefix="linecov-") as scratch:
        src = os.path.join(tree, "src")
        wrong = misplaced(src, KEPT)
        if wrong:
            print(f"error: KEPT text not found once in its module: {', '.join(k.text for k in wrong)}",
                  file=sys.stderr)
            return 2
        out = os.path.join(scratch, "ran.json")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-c", TRACED_TIER1, out, os.path.abspath(__file__)],
                              cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"error: tier-1 exited {proc.returncode} under the tracer:\n{proc.stdout[-3000:]}",
                  file=sys.stderr)
            return 2
        with open(out, encoding="utf-8") as fh:
            ran: dict[str, set[int]] = {}
            for filename, line in json.load(fh):
                ran.setdefault(filename, set()).add(line)
        package = os.path.join(src, "homeloop")
        total = printed = kept = 0
        for folder, _, files in sorted(os.walk(package)):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                module = os.path.relpath(path, package)
                lines = executable_lines(path)
                missed = unrun(path, ran.get(path, set()), tuple(k for k in KEPT if k.module == module))
                total += len(lines)
                kept += len(lines - ran.get(path, set())) - len(missed)
                for line, text in missed:
                    print(f"{os.path.relpath(path, tree)}:{line}: {text}")
                printed += len(missed)
    print(f"{total - printed - kept} of {total} executable lines run, {kept} kept unrun, {printed} printed, "
          f"in {time.monotonic() - start:.0f} s", file=sys.stderr)
    return 1 if printed else 0


if __name__ == "__main__":
    sys.exit(main())
