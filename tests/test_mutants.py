"""The kept mutants' registry (``tests/mutants.py``) still fits the code:
each source text occurs once in ``src/``, in its module, and each named test
is collected. ``tools/mutants.py`` runs the mutants; tier-1 does not."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from mutants import MUTANTS, TRACE_DIGEST, occurrences

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_a_mutants_source_text_occurs_once_in_src_in_its_module(mutant):
    assert occurrences(os.path.join(ROOT, "src"), mutant.source) == {os.path.join("homeloop", mutant.module): 1}
    assert mutant.replacement != mutant.source


def test_mutant_names_are_unique_and_each_names_a_test():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    assert all(m.tests for m in MUTANTS)


def test_every_named_test_is_collected():
    ids = sorted({t for m in MUTANTS for t in m.tests if t != TRACE_DIGEST})
    files = sorted({t.split("::")[0] for t in ids})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files]
    collected = set(subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True).stdout.split())
    assert [t for t in ids if t not in collected] == []
    assert os.path.isfile(os.path.join(ROOT, TRACE_DIGEST))
