from __future__ import annotations

import gc
import io
import json
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from homeloop import harness, recovery
from homeloop.config import SuiteConfig, load_builtin_suite, parse_suite
from homeloop.errors import ConfigError, TraceFormatError
from homeloop.goals import parse_goal
from homeloop.harness import TrialOptions, _Trial, make_planner_factory, replay_matches, run_suite, run_trial
from homeloop.planning import ChatModelPlanner, ParseError, ScriptedPlanner
from homeloop.trace import RECORD_TALLIES, TrialReport, load_trace, load_trace_file, trace_text, write_trace
from homeloop.verification import FailureRecord

from conftest import mini_task, zero_noise
from mock_llm import TranscriptBackend


def test_move_toy_zero_noise_counts(zero_options):
    report = run_trial(mini_task(), ScriptedPlanner(), seed=0, options=zero_options)
    assert report.outcome == "success"
    assert report.execution_steps == 4
    assert report.successful_steps == 4
    assert report.replanned_executions == 0
    assert report.failure_records == []


def test_single_grasp_failure_then_recovery_counts():
    # seeded single-failure schedule: find a seed with exactly one sampled
    # grasp failure recovered by one retry
    noise = zero_noise(p_grasp_fail=0.35, p_object_shift_on_fail=0.0)
    for seed in range(60):
        report = run_trial(mini_task(), ScriptedPlanner(), seed=seed, options=TrialOptions(noise=dict(noise)))
        causes = [r.cause for r in report.failure_records]
        if causes == ["grasp_failed"] and report.outcome == "success" and report.execution_steps == 5:
            assert report.successful_steps == 4
            assert report.replanned_executions == 1
            assert report.recovered_executions == 1
            assert report.direct_failures == 0
            return
    raise AssertionError("no single-failure seed found in 60 tries")


def test_every_verified_step_runs_through_the_one_executor(monkeypatch):
    """The trial loop and recovery share ``recovery.execute``: one call per
    verdict event, recovery re-issues included."""
    calls = []
    original = recovery.execute

    def counting(ctx, request):
        calls.append(request.verb)
        return original(ctx, request)

    # harness binds the name on import, so it is patched there too
    monkeypatch.setattr(recovery, "execute", counting)
    monkeypatch.setattr(harness, "execute", counting)
    noise = zero_noise(p_grasp_fail=0.5, p_object_shift_on_fail=0.0)
    for seed in range(20):
        calls.clear()
        report = run_trial(mini_task(), ScriptedPlanner(), seed=seed, options=TrialOptions(noise=dict(noise)))
        if any(e["event"] == "recovery_action" for e in report.events):
            break
    else:
        raise AssertionError("no trial with a recovery episode in 20 seeds")
    assert calls == [e["verb"] for e in report.events if e["event"] == "verdict"]


def test_step_cap_reached(zero_options):
    task = mini_task(step_cap=2)
    report = run_trial(task, ScriptedPlanner(), seed=0, options=zero_options)
    assert report.outcome == "failure"
    assert report.reason == "step cap"
    assert report.execution_steps == 2


def test_finished_trial_frees_its_world_without_cyclic_gc():
    # a recovery episode runs, so the EpisodeRunner is exercised too
    noise = zero_noise(p_grasp_fail=1.0, p_object_shift_on_fail=0.0)
    trial = _Trial(mini_task(), ScriptedPlanner(), 0, 0, TrialOptions(noise=noise))
    world = weakref.ref(trial.world)
    gc.disable()
    try:
        report = trial.run()
        del trial
        assert world() is None
    finally:
        gc.enable()
    assert any(e["event"] == "recovery" for e in report.events)


def test_recovery_disabled_direct_failure():
    noise = zero_noise(p_grasp_fail=1.0, p_object_shift_on_fail=0.0)
    report = run_trial(
        mini_task(), ScriptedPlanner(), seed=0,
        options=TrialOptions(noise=noise, recovery_enabled=False),
    )
    assert report.outcome == "failure"
    assert report.direct_failures == 1
    assert report.replanned_executions == 0
    record = report.failure_records[0]
    assert record.cause == "grasp_failed"
    assert record.recovery_level == "none"  # direct failures carry no level


def test_trace_round_trip_and_byte_identity(zero_options):
    report = run_trial(mini_task(), ScriptedPlanner(), seed=3, options=zero_options)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_trace(report, buf1)
    write_trace(report, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    loaded = load_trace(io.StringIO(buf1.getvalue()))
    assert loaded == report

    again = run_trial(mini_task(), ScriptedPlanner(), seed=3, options=zero_options)
    buf3 = io.StringIO()
    write_trace(again, buf3)
    assert buf3.getvalue() == buf1.getvalue()  # same seed, same bytes


def test_trace_writer_matches_per_line_json_dumps(zero_options):
    """One reused encoder writes the bytes that ``json.dumps`` wrote per
    line: non-ASCII text stays escaped and floats keep their repr."""
    report = run_trial(mini_task(), ScriptedPlanner(), seed=3, options=zero_options)
    report.events.append({
        "event": "note",
        "text": "caf\u00e9 \u2014 \U0001f600 \"quoted\" \\ \n",
        "numbers": [-0.0, 1e-7, 2**70, -(2**64) + 1, 0.1 + 0.2, 1e300],
        "nested": [[None, True, False], [], [{"z": None, "a": [1.5, [2, [3]]]}]],
        "none": None,
        "\u00fcber": {"b": 1, "a": -0.0},
    })
    buf = io.StringIO()
    write_trace(report, buf)
    lines = buf.getvalue().split("\n")
    assert lines.pop() == ""  # every line ends in a newline
    docs = [json.loads(line) for line in lines]
    assert docs[1:-1] == report.events
    assert lines == [json.dumps(doc, sort_keys=True, separators=(",", ":")) for doc in docs]
    assert lines[-2].isascii() and "-0.0" in lines[-2] and "1e-07" in lines[-2]


def test_truncated_trace_names_last_valid_line(zero_options):
    report = run_trial(mini_task(), ScriptedPlanner(), seed=0, options=zero_options)
    buf = io.StringIO()
    write_trace(report, buf)
    lines = buf.getvalue().splitlines()
    truncated = "\n".join(lines[:-1])  # drop the footer
    with pytest.raises(TraceFormatError) as exc:
        load_trace(io.StringIO(truncated))
    assert exc.value.last_valid_line == len(lines) - 1

    mangled = "\n".join(lines[:4] + ['{"event": "broken'])
    with pytest.raises(TraceFormatError) as exc:
        load_trace(io.StringIO(mangled))
    assert exc.value.last_valid_line == 4


def _with_footer_edited(report, edit):
    """The report's trace lines with ``edit`` applied to its footer."""
    lines = trace_text(report).splitlines()
    footer = json.loads(lines[-1])
    edit(footer)
    return "\n".join(lines[:-1] + [json.dumps(footer)])


@pytest.mark.parametrize(
    "text, last_valid",
    [
        pytest.param("\n\n  \n", 0, id="blank-lines"),
        pytest.param("[1]\n", 0, id="array-first-line"),
        pytest.param('{"schema": "homeloop-trace@2"}\n"text"\n', 1, id="string-second-line"),
    ],
)
def test_trace_without_json_objects_is_a_format_error(text, last_valid):
    with pytest.raises(TraceFormatError) as exc:
        load_trace(io.StringIO(text))
    assert exc.value.last_valid_line == last_valid


@pytest.mark.parametrize("drop", ["counters", "outcome", "failure_records"])
def test_footer_missing_a_field_is_a_format_error(zero_options, drop):
    report = run_trial(mini_task(), ScriptedPlanner(), seed=0, options=zero_options)
    text = _with_footer_edited(report, lambda footer: footer.pop(drop))
    with pytest.raises(TraceFormatError) as exc:
        load_trace(io.StringIO(text))
    assert drop in str(exc.value)
    assert exc.value.last_valid_line == len(text.splitlines()) - 1


@pytest.mark.parametrize("key", RECORD_TALLIES)
def test_a_footer_counter_that_does_not_match_the_records_is_a_format_error(key):
    noise = zero_noise(p_grasp_fail=1.0, p_object_shift_on_fail=0.0)
    report = run_trial(mini_task(), ScriptedPlanner(), seed=0, options=TrialOptions(noise=noise))
    assert report.failure_records
    text = _with_footer_edited(report, lambda footer: footer["counters"].update({key: footer["counters"][key] + 1}))
    with pytest.raises(TraceFormatError) as exc:
        load_trace(io.StringIO(text))
    footer_line = len(text.splitlines())
    assert str(exc.value) == f"counter {key} does not match failure records (last valid line: {footer_line})"


def test_more_recovered_than_replanned_records_break_an_identity():
    # the record is direct, so failures = replanned + direct still holds
    record = FailureRecord("grasp_failed", 0, "none", direct_failure=True, recovered=True)
    report = TrialReport("t", 0, 0, "failure", "", False, 1, 0, failure_records=[record])
    with pytest.raises(ValueError) as exc:
        report.check_identities()
    assert str(exc.value) == "1 recovered > 0 replanned"


def test_replay_rederives_identical_verdicts():
    noise = zero_noise(p_grasp_fail=0.4)
    for seed in (0, 1, 2, 3):
        report = run_trial(mini_task(), ScriptedPlanner(), seed=seed, options=TrialOptions(noise=dict(noise)))
        assert replay_matches(report)


def test_perception_verbs_never_counted(zero_options):
    report = run_trial(mini_task(), ScriptedPlanner(), seed=0, options=zero_options)
    perception = [e for e in report.events
                  if e["event"] == "feedback" and e["verb"].startswith(("explore", "report"))]
    assert perception
    assert all(not e["counted"] for e in perception)
    counted = [e for e in report.events if e["event"] == "feedback" and e["counted"]]
    assert len(counted) == report.execution_steps


def test_run_suite_writes_traces_and_reports(tmp_path, zero_options):
    suite = load_builtin_suite("acceptance")
    suite.tasks = [t for t in suite.tasks if t.id in ("A1", "B1")]
    for t in suite.tasks:
        t.trial_count = 2
        t.seeds = [0, 1]
    table, reports = run_suite(
        suite, ScriptedPlanner, out_dir=str(tmp_path), options=zero_options
    )
    assert table.total_row.sr.render() == "4/4"
    assert (tmp_path / "A1" / "0.jsonl").exists()
    assert (tmp_path / "B1" / "1.jsonl").exists()
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "run_meta.json").exists()


def test_run_suite_parallel_matches_serial(tmp_path, zero_options):
    suite = load_builtin_suite("acceptance")
    suite.tasks = [t for t in suite.tasks if t.id in ("A1", "B3")]
    serial_table, serial_reports = run_suite(suite, ScriptedPlanner, options=zero_options)
    parallel_table, parallel_reports = run_suite(
        suite, ScriptedPlanner, options=zero_options, parallel=4
    )
    assert [r.outcome for r in serial_reports] == [r.outcome for r in parallel_reports]
    assert serial_table.total_row == parallel_table.total_row


def test_run_suite_with_an_output_directory_returns_reports_without_events(tmp_path):
    """The events are in the trace files: each loads to the events a run of
    the same suite without an output directory returns."""
    suite = load_builtin_suite("acceptance")
    factory = make_planner_factory("scripted")
    _, streamed = run_suite(suite, factory, out_dir=str(tmp_path), base_seed=5)
    _, kept = run_suite(suite, factory, base_seed=5)
    assert [r.events for r in streamed] == [[]] * len(kept)
    assert all(r.events for r in kept)
    for report, full in zip(streamed, kept):
        loaded = load_trace_file(str(tmp_path / report.task_id / f"{report.trial_index}.jsonl"))
        assert loaded.events == full.events
        assert replace(loaded, events=[]) == report


def _held_after_run_suite(out_dir) -> int:
    """The bytes ``tracemalloc`` still traces once ``run_suite`` of
    ``builtin:benchmark`` has returned, with its reports still referenced."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run_suite(load_builtin_suite("benchmark"), make_planner_factory("scripted"), out_dir=out_dir)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result[1]) == 60
    return held


def test_run_suite_with_an_output_directory_holds_a_quarter_of_the_memory(tmp_path):
    run_suite(load_builtin_suite("benchmark"), make_planner_factory("scripted"))  # fills the geometry cache
    streamed = _held_after_run_suite(str(tmp_path))
    kept = _held_after_run_suite(None)
    assert streamed < kept / 4, (streamed, kept)


def test_run_suite_runs_every_trial_through_the_module_global_run_trial(monkeypatch):
    """``perfbench/run.py`` times each trial by replacing ``harness.run_trial``
    and then calling ``harness.run_suite``: every trial must pass through it."""
    seen = []
    original = harness.run_trial

    def counting(task, planner, seed, trial_index=0, options=None):
        seen.append((task.id, trial_index, seed))
        return original(task, planner, seed, trial_index, options)

    monkeypatch.setattr(harness, "run_trial", counting)
    task = mini_task()
    task.trial_count = 3
    _, reports = harness.run_suite(SuiteConfig(name="one-task", tasks=[task], noise_profile="zero"), ScriptedPlanner)
    assert len(reports) == 3
    assert seen == [(r.task_id, r.trial_index, r.seed) for r in reports]


def test_empty_suite_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_suite({"name": "empty", "tasks": []})
    assert exc.value.field_path == "tasks" and "no tasks" in str(exc.value)


def test_paired_seed_recovery_dominance_small():
    noise = zero_noise(p_grasp_fail=0.3)
    wins = {True: 0, False: 0}
    for seed in range(20):
        outcomes = {}
        for enabled in (True, False):
            report = run_trial(
                mini_task(), ScriptedPlanner(), seed=seed,
                options=TrialOptions(noise=dict(noise), recovery_enabled=enabled),
            )
            outcomes[enabled] = report.outcome == "success"
            wins[enabled] += outcomes[enabled]
        assert outcomes[True] or not outcomes[False]  # enabled dominates per seed
    assert wins[True] >= wins[False]


def test_strict_escalation_trial_stays_level_by_level():
    noise = zero_noise(p_grasp_fail=1.0, p_object_shift_on_fail=1.0)
    report = run_trial(
        mini_task(), ScriptedPlanner(), seed=0,
        options=TrialOptions(noise=noise, strict_escalation=True),
    )
    episode_levels = next(
        e["levels"] for e in report.events if e["event"] == "episode_end"
    )
    # despite shift evidence, strict mode starts at object and walks upward
    assert episode_levels[0] == "object"
    assert episode_levels == sorted(episode_levels, key=("object", "local", "global").index)


def test_strict_remap_after_a_flipped_navigate_flag_stays_in_the_trial():
    # a flipped success flag leaves the belief at sofa_0 while the robot
    # stands at table_0; the strict local level must not rescan sofa_0
    task = next(t for t in load_builtin_suite("benchmark").tasks if t.id == "A2")
    report = run_trial(
        task, ScriptedPlanner(), seed=200010, trial_index=4,
        options=TrialOptions(noise={"p_flag_error": 0.3}, strict_escalation=True),
    )
    assert report.outcome in ("success", "failure")
    remaps = [e for e in report.events if e["event"] == "recovery" and e["directive"] == "remap"]
    assert remaps, "the trial no longer reaches the strict local level"


def test_prepare_cup_requires_closeups(zero_options):
    # attribute-selective goals force object-level inspection: the policy must
    # look at cups before grasping the empty one
    suite = load_builtin_suite("acceptance")
    task = next(t for t in suite.tasks if t.id == "B3")
    report = run_trial(task, ScriptedPlanner(), seed=0, options=zero_options)
    assert report.outcome == "success"
    plans = [e["text"] for e in report.events if e["event"] == "plan"]
    closeups = [p for p in plans if p.startswith("report_observation(cup_")]
    assert closeups, plans
    grasped = next(p for p in plans if p.startswith("grasp("))
    target = grasped[len("grasp("):-1]
    # the grasped cup's attributes were confirmed by a close-up (either its
    # own or a neighbor's within the close-up radius) before the grasp
    grasp_index = next(
        e["index"] for e in report.events
        if e["event"] == "request" and e["verb"] == "grasp"
    )
    inspected_before = [
        e for e in report.events
        if e["event"] == "observation"
        and e["observation"]["kind"] == "close_up"
        and e["index"] < grasp_index
        and any(o["id"] == target for o in e["observation"]["visible"])
    ]
    assert inspected_before, plans


def test_accounting_identities_on_noisy_trials():
    noise = zero_noise(
        p_grasp_fail=0.5, p_place_fail=0.3, p_nav_fail=0.2,
        p_missed_detection=0.3, p_false_positive=0.3, p_object_shift_on_fail=0.5,
    )
    for seed in range(25):
        report = run_trial(mini_task(), ScriptedPlanner(), seed=seed, options=TrialOptions(noise=dict(noise)))
        report.check_identities()
        assert report.outcome in ("success", "failure")


# --- every way a trial ends ------------------------------------------------------------

# toy_0 starts on table_0 and cup_0 on table_1: the first goal holds from the
# start, and no plan below scans table_1, so recovery's belief never sees it hold
GOALS = {
    True: {"on": {"object": {"id": "cup_0"}, "receptacle": {"id": "table_1"}}},
    False: {"on": {"object": {"id": "toy_0"}, "receptacle": {"id": "bed_0"}}},
}
SCAN = ["explore_global()", "navigate(table_0)", "explore_local(table_0)"]
MALFORMED = 'navigate("table")'
BUDGET_REASON = (
    "plan rejected: plan still malformed after 2 repair round(s): "
    "line 1: expected object reference, got string literal 'table'"
)


class _RejectingPlanner:
    """Fails its first plan with a parse error, as a planner without a repair
    round would."""

    def next_step(self, task, history, view):
        raise ParseError(1, "plan is empty", "emit at least one call or done()")


# name: (plan lines, step cap, noise overrides, recovery enabled, reason when the goal does not hold)
END_PATHS = {
    "step-cap": (SCAN + ["grasp(toy_0)"] * 3, 2, {}, True, "step cap"),
    "request-cap": (["explore_global()"] * 11, 1, {}, True, "request cap"),
    "plan-rejected-parse": (None, 5, {}, True, "plan rejected: line 1: plan is empty"),
    "plan-rejected-budget": ([MALFORMED] * 3, 5, {}, True, BUDGET_REASON),
    "transport": (SCAN, 5, {}, True, "transport: transcript exhausted"),
    "done-message": (['done("finished")'], 5, {}, True, "finished"),
    "done-bare": (["done()"], 5, {}, True, "done without goal"),
    "recovery-disabled": (SCAN + ["grasp(toy_0)"], 5, {"p_grasp_fail": 1.0}, False,
                          "unrecovered grasp_failed (recovery disabled)"),
    "recovery-exhausted": (SCAN + ["grasp(toy_0)"], 5, {"p_grasp_fail": 1.0}, True,
                           "recovery exhausted after grasp_failed"),
    # a done() right after a plan-level mistake: the mistake's record is settled by the outcome
    "pending-plan-fix": (["explore_global()", "grasp(nothing_0)", 'done("gave up")'], 5, {}, True, "gave up"),
}


def _expected_end(name: str, held: bool, reason: str) -> tuple[str, str, bool]:
    if name == "transport":
        # a transport failure says nothing about the planner: the trial is invalid either way
        return "infrastructure-invalid", reason, held
    if not held:
        return "failure", reason, False
    if name in ("done-message", "pending-plan-fix"):
        return "success", reason, True
    if name == "done-bare":
        return "success", "done", True
    return "success", f"goal satisfied ({reason})", True


@pytest.mark.parametrize("held", [True, False], ids=["goal-held", "goal-not-held"])
@pytest.mark.parametrize("name", list(END_PATHS))
def test_every_way_a_trial_ends(name, held):
    lines, step_cap, noise, recovery_enabled, reason = END_PATHS[name]
    if lines is None:
        planner = _RejectingPlanner()
    else:
        planner = ChatModelPlanner(TranscriptBackend(replies=[f"```\n{line}\n```" for line in lines]))
    task = mini_task(parse_goal(GOALS[held]), step_cap=step_cap)
    options = TrialOptions(noise=zero_noise(**noise), recovery_enabled=recovery_enabled)
    report = run_trial(task, planner, seed=0, options=options)
    assert (report.outcome, report.reason, report.goal_satisfied) == _expected_end(name, held, reason)
    if name == "pending-plan-fix":
        [record] = report.failure_records
        assert record.cause == "api_call_error"
        assert (record.replanned, record.recovered, record.direct_failure) == (held, held, not held)
