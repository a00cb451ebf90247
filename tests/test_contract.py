"""The names the benchmark reads from homeloop keep resolving.

``perfbench`` imports these names and wraps the functions that
``perfbench/tracing.SPANS`` binds. ROADMAP.md lists them under "Open items";
a rename or a move that drops one breaks the benchmark, not homeloop's own
tests, so this module pins them.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONTRACT = {
    "homeloop.trace": ("load_trace", "write_trace", "TrialReport", "OUTCOME_SUCCESS"),
    "homeloop.harness": (
        "replay_matches", "SuiteConfig", "TaskSpec", "TrialOptions", "resolve_noise_profile",
        "load_builtin_suite", "make_planner_factory", "run_trial", "run_suite",
    ),
    "homeloop.world": ("parse_config", "validate_config"),
    "homeloop.goals": ("parse_goal",),
    "homeloop.config": (
        "SuiteConfig", "TaskSpec", "resolve_noise_profile", "load_builtin_suite", "parse_config", "validate_config",
    ),
    "homeloop.planning": ("ChatModelPlanner", "ScriptedPlanner", "scripted_next_step", "estimate_tokens"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in CONTRACT.items() for n in names])
def test_contract_name_resolves(module, name):
    assert getattr(importlib.import_module(module), name) is not None


def test_tracer_binds_every_span_and_puts_each_back():
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.tracing import SPANS, Tracer, _resolve

    def current(binding):
        owner, attr = _resolve(binding)
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    bindings = [b for group in SPANS.values() for b in group]
    before = [current(b) for b in bindings]
    tracer = Tracer()
    try:
        tracer.install()  # fails on the first binding that does not resolve
        assert all(current(b) is not original for b, original in zip(bindings, before))
    finally:
        tracer.uninstall()
    assert all(current(b) is original for b, original in zip(bindings, before))
