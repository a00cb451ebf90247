"""Fast tests of the benchmark itself: its checks reject corrupted traces,
its generated scenes validate, and the names it prints match BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os

import pytest

from homeloop import harness
from homeloop.planning import ScriptedPlanner
from homeloop.world import World, parse_config, validate_config

from perfbench import checks, generators, run
from perfbench.tracing import Tracer, per_layer_metrics
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _edit(text: str, index: int, change) -> str:
    lines = text.splitlines()
    doc = json.loads(lines[index])
    change(doc)
    lines[index] = _dump(doc)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def long_trial():
    """One generated long-horizon trial, its document and its trace text."""
    workload = WORKLOADS["long_horizon"]
    docs = workload.docs(0, 0)[:1]
    suite, _ = workload.load(docs, 0, 0)[0]
    task = suite.tasks[0]
    options = harness.TrialOptions(noise=harness.resolve_noise_profile(suite.noise_profile))
    report = harness.run_trial(task, workload.planner_factory()(), docs[0]["seed"], 0, options)
    return docs[0], task, options, checks.serialize(report)


def test_a_written_trace_passes(long_trial):
    doc, _, _, text = long_trial
    report, problems = checks.check_trace(text)
    assert problems == []
    assert report.execution_steps >= 20
    assert checks.check_generated_outcome(doc, report) == []


def test_step_counter_off_by_one_is_rejected(long_trial):
    _, _, _, text = long_trial
    bad = _edit(text, -1, lambda d: d["counters"].__setitem__("execution_steps", d["counters"]["execution_steps"] + 1))
    _, problems = checks.check_trace(bad)
    assert any("steps" in p for p in problems)


def test_failure_counter_off_by_one_is_rejected(long_trial):
    _, _, _, text = long_trial
    bad = _edit(text, -1, lambda d: d["counters"].__setitem__("direct_failures", d["counters"]["direct_failures"] + 1))
    report, problems = checks.check_trace(bad)
    assert report is None and problems


def test_flipped_verdict_is_rejected(long_trial):
    _, _, _, text = long_trial
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if '"event":"verdict"' in line)
    bad = _edit(text, index, lambda d: d.__setitem__("success", not d["success"]))
    _, problems = checks.check_trace(bad)
    assert any("replay" in p for p in problems)


def test_flipped_outcome_is_rejected(long_trial):
    doc, _, _, text = long_trial
    flipped = {"success": "failure", "failure": "success"}
    bad = _edit(text, -1, lambda d: d.__setitem__("outcome", flipped[d["outcome"]]))
    report, problems = checks.check_trace(bad)
    assert any("goal_satisfied" in p for p in problems)
    assert checks.check_generated_outcome(doc, report)


def test_independent_goal_evaluation_follows_the_feedback(long_trial):
    doc, _, _, text = long_trial
    report, _ = checks.check_trace(text)
    parents = checks.final_parents(doc["scene"], report.events)
    all_on = doc["goal"]["and"][0]["all_on"]
    dest, category = all_on["receptacle"]["id"], all_on["category"]
    moved = [o["id"] for o in doc["scene"]["objects"] if o["category"] == category and parents[o["id"]] == dest]
    assert moved, "the trial placed nothing on the destination"
    unplaced = [e for e in report.events if not (e.get("event") == "feedback" and "placed" in e["details"])]
    assert not checks.goal_holds(doc["scene"], doc["goal"], checks.final_parents(doc["scene"], unplaced))


def test_chat_driven_trace_equals_scripted_trace(long_trial):
    _, task, options, text = long_trial
    report = harness.run_trial(task, ScriptedPlanner(), task.seeds[0], 0, options)
    assert checks.serialize(report) == text


def test_tracing_leaves_traces_unchanged_and_uninstalls(long_trial):
    _, task, options, text = long_trial
    original = harness.run_trial
    tracer = Tracer()
    tracer.install()
    try:
        report = harness.run_trial(task, WORKLOADS["long_horizon"].planner_factory()(), task.seeds[0], 0, options)
    finally:
        tracer.uninstall()
    assert harness.run_trial is original
    assert checks.serialize(report) == text
    values = tracer.metrics()
    assert values["harness.run_trial.calls"] == 1
    assert values["planning.assemble_prompt.calls"] > 0
    assert values["skills.execution_steps"] == report.execution_steps
    assert 0 < values["harness.run_trial.self_ms"] < values["harness.run_trial.ms"]


@pytest.mark.parametrize("generator", [generators.apartment, generators.tabletop])
def test_generated_scenes_validate(generator):
    for seed in range(3):
        for index in range(4):
            scene, task = generator(seed, 0, index)
            config = parse_config(scene)
            validate_config(config)
            World(config)
            assert scene == generator(seed, 0, index)[0], "same key, same scene"
            assert "variation" not in scene
            assert task["step_cap"] > 0


def test_tabletop_has_ten_or_more_goal_objects():
    for index in range(10):
        scene, task = generators.tabletop(5, 1, index)
        category = task["goal"]["and"][0]["all_on"]["category"]
        assert sum(o["category"] == category for o in scene["objects"]) >= 10


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == per_layer_metrics()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
