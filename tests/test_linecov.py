"""``tools/linecov.py``'s arithmetic on a small module: its executable lines,
the lines its tracer sees run, and the unrun lines it prints. Its list of
lines that stay unrun names each line once in ``src/homeloop``. The full
run over tier-1 is not part of tier-1."""

from __future__ import annotations

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("linecov", os.path.join(ROOT, "tools", "linecov.py"))
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

SAMPLE = '''\
"""A module for the line tracer."""
import os


def f(x):
    if x:
        return 1
    return 2


class C:
    def g(self):
        ...


if os.sep == "?":
    f(1)
'''


def run_traced(path: str, prefix: str) -> set[int]:
    """The lines of ``path`` run while it is executed and ``f(0)`` is called."""
    ran: set[tuple[str, int]] = set()
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    namespace: dict = {}
    previous = sys.gettrace()  # the tool's own tracer, when it runs this test
    sys.settrace(linecov.line_tracer(prefix, ran))
    try:
        exec(code, namespace)
        namespace["f"](0)
    finally:
        sys.settrace(previous)
    assert {filename for filename, _ in ran} == {path}
    return {line for _, line in ran}


def test_the_unrun_lines_are_the_executable_lines_that_did_not_run(tmp_path):
    path = str(tmp_path / "sample.py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SAMPLE)
    # the blank lines hold no instruction
    assert linecov.executable_lines(path) == {1, 2, 5, 6, 7, 8, 11, 12, 13, 16, 17}
    ran = run_traced(path, str(tmp_path) + os.sep)
    assert ran == {1, 2, 5, 6, 8, 11, 12, 16}
    assert linecov.unrun(path, ran) == [(7, "return 1"), (13, "..."), (17, "f(1)")]
    kept = (linecov.Kept("sample.py", "...", linecov.PROTOCOL_BODY),)
    assert linecov.unrun(path, ran, kept) == [(7, "return 1"), (17, "f(1)")]


def test_the_tracer_ignores_files_outside_its_prefix(tmp_path):
    path = str(tmp_path / "sample.py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SAMPLE)
    ran: set[tuple[str, int]] = set()
    previous = sys.gettrace()
    sys.settrace(linecov.line_tracer(str(tmp_path / "elsewhere") + os.sep, ran))
    try:
        exec(compile(SAMPLE, path, "exec"), {})
    finally:
        sys.settrace(previous)
    assert ran == set()


def test_each_kept_line_is_one_line_of_its_module():
    assert linecov.misplaced(os.path.join(ROOT, "src"), linecov.KEPT) == []
    assert all(k.reason for k in linecov.KEPT)
    assert len({(k.module, k.text) for k in linecov.KEPT}) == len(linecov.KEPT)
    moved = linecov.Kept("cli.py", "return EXIT_OK", "")  # one of several lines
    assert linecov.misplaced(os.path.join(ROOT, "src"), (moved,)) == [moved]
