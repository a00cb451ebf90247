"""Acceptance criteria, one test per criterion.

Each test prints one line (visible with -s or on failure) summarizing the
measured values against its stated tolerance. Tolerances are pinned here,
not configurable.
"""

from __future__ import annotations

import io
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.config import load_builtin_suite, resolve_noise_profile
from homeloop.harness import TrialOptions, replay_matches, run_suite, run_trial
from homeloop.metrics import EMPTY_RATIO, compute_metrics
from homeloop.perception import Belief, explore_global, explore_local, report_observation
from homeloop.planning import Call, ChatModelPlanner, HttpChatBackend, ScriptedPlanner
from homeloop.recovery import BUDGETS, DIRECTIVES, LADDER, RecoveryEpisode, select_recovery
from homeloop.trace import load_trace, write_trace
from homeloop.verification import FailureRecord
from homeloop.world import ActionRequest

from conftest import DOLL_SCENE, make_world, mini_task, zero_noise
from mock_llm import MockChatServer, TranscriptBackend
from test_metrics import direct, failed_replan, per_task_reports, recovered, trial


def note(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


# -- 1. zero-noise completeness ---------------------------------------------------


def test_criterion_1_zero_noise_completeness():
    suite = load_builtin_suite("acceptance")
    options = TrialOptions(noise=resolve_noise_profile("zero"))
    start = time.monotonic()
    table, reports = run_suite(suite, ScriptedPlanner, options=options)
    elapsed = time.monotonic() - start
    sr = table.total_row.sr
    assert sr.num == sr.den == len(reports), table.render_text()
    assert all(r.outcome == "success" for r in reports)
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"
    note(f"1: PASS — zero-noise SR {sr.render()} across 8 tasks in {elapsed:.2f}s (< 10s)")


# -- 2. recovery efficacy on paired seeds ------------------------------------------


def test_criterion_2_recovery_efficacy_paired_seeds():
    task = mini_task()
    noise = zero_noise(p_grasp_fail=0.3)
    enabled_wins = 0
    disabled_wins = 0
    for seed in range(100):
        results = {}
        for flag in (True, False):
            report = run_trial(
                task, ScriptedPlanner(), seed=seed,
                options=TrialOptions(noise=dict(noise), recovery_enabled=flag),
            )
            results[flag] = report.outcome == "success"
        assert results[True] or not results[False], f"domination violated at seed {seed}"
        enabled_wins += results[True]
        disabled_wins += results[False]
    gap = (enabled_wins - disabled_wins) / 100.0
    assert gap >= 0.20, f"enabled {enabled_wins} vs disabled {disabled_wins}"
    oracle = 1.0 - 0.3**3
    deviation = abs(enabled_wins / 100.0 - oracle)
    assert deviation <= 0.05, f"enabled SR {enabled_wins/100} vs closed form {oracle}"
    note(
        f"2: PASS — enabled {enabled_wins}/100 vs disabled {disabled_wins}/100 "
        f"(gap {gap:.0%} >= 20%), |SR - (1-0.3^3)| = {deviation:.3f} <= 0.05, "
        "per-seed domination held"
    )


# -- 3. accounting identities over randomized trials ---------------------------------


def test_criterion_3_accounting_identities_randomized():
    task = mini_task()
    rng = random.Random(987654321)
    checked = 0
    for _ in range(1000):
        noise = {
            "p_grasp_fail": rng.random() * 0.9,
            "p_place_fail": rng.random() * 0.9,
            "p_nav_fail": rng.random() * 0.9,
            "p_false_positive": rng.random(),
            "p_missed_detection": rng.random() * 0.9,
            "p_object_shift_on_fail": rng.random(),
            "p_flag_error": rng.random() * 0.2,
            "p_closeup_error": rng.random() * 0.5,
        }
        report = run_trial(
            task, ScriptedPlanner(), seed=rng.randrange(2**31),
            options=TrialOptions(noise=noise),
        )
        assert report.successful_steps <= report.execution_steps
        assert report.recovered_executions <= report.replanned_executions
        assert len(report.failure_records) == report.replanned_executions + report.direct_failures
        for event in report.events:
            if event["event"] == "feedback" and event["verb"] in (
                "explore_global", "explore_local", "report_observation",
            ):
                assert not event["counted"]
        checked += 1
    note(f"3: PASS — identities held on {checked}/1000 randomized trials "
         "(successful<=steps, recovered<=replanned, failures=replanned+direct, "
         "perception never counted)")


# -- 4. table fixtures ------------------------------------------------------------------


def test_criterion_4_table_fixtures():
    reports = []
    reports += per_task_reports("move_toy", 5, 3, 17, 20, 2, 4)
    reports += per_task_reports("transfer_all_toys", 5, 2, 30, 42, 1, 4)
    reports += per_task_reports("move_cup_and_toy", 5, 4, 27, 30, 4, 5)
    reports += per_task_reports("gather_cups", 5, 4, 27, 30, 7, 10)
    table = compute_metrics(reports)
    assert table.total_row.sr.render() == "13/20"
    assert table.total_row.ssr.render() == "101/122"
    assert table.total_row.rr.render() == "14/23"

    def rows(cause, df, rec, rep, total):
        out = [recovered(cause) for _ in range(rec)]
        out += [failed_replan(cause) for _ in range(rep - rec)]
        out += [direct(cause) for _ in range(df)]
        assert len(out) == total
        return out

    records = []
    records += rows("false_positive", 3, 5, 5, 8)
    records += rows("missed_detection", 1, 1, 1, 2)
    records += rows("visual_feedback_error", 2, 1, 1, 3)
    records += rows("api_call_error", 3, 5, 5, 8)
    records += rows("grasp_failed", 1, 16, 23, 24)
    records += rows("place_failed", 3, 3, 3, 6)
    records += rows("navigation_failed", 1, 0, 0, 1)
    ftable = compute_metrics([trial("all", False, 0, 10, records)])
    assert ftable.failure_total.recovery_rate.render() == "31/38"
    assert ftable.failure_total.overall.render() == "31/52"
    assert ftable.failure_total.direct == 14
    assert ftable.failure_total.total == 38 + 14 == 52
    nav = next(r for r in ftable.failure_rows if r.cause == "navigation_failed")
    assert nav.recovery_rate.render() == EMPTY_RATIO
    note("4: PASS — totals 13/20, 101/122, 14/23 and 31/38, 31/52, DF 14 "
         f"reproduced exactly; 0/0 renders as {EMPTY_RATIO!r}")


# -- 5. escalation protocol ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["none", "shift", "lost", "reach"]), min_size=0, max_size=10),
    st.sampled_from(["object", "local", "global"]),
)
def test_criterion_5_escalation_protocol(events, start_level):
    episode = RecoveryEpisode(
        failure=FailureRecord("grasp_failed", 0, start_level),
        verb="grasp",
        object_id="toy_0",
        target="toy_0",
    )
    levels = []
    for step in range(sum(BUDGETS.values()) + 1):
        level = select_recovery(episode)
        if DIRECTIVES[level] == "exhausted":
            break
        levels.append(level)
        if episode.shifted:
            assert LADDER.index(level) >= LADDER.index("local")
        if episode.out_of_reach or episode.target_lost:
            assert level == "global"
        event = events[step % len(events)] if events else "none"
        if event == "shift":
            episode.shifted = True
        elif event == "lost":
            episode.target_lost = True
        elif event == "reach":
            episode.out_of_reach = True
    else:
        raise AssertionError("episode failed to terminate within budget")
    assert levels == sorted(levels, key=LADDER.index)
    for level, budget in BUDGETS.items():
        assert episode.levels.count(level) <= budget


def test_criterion_5_note():
    note("5: PASS — 300 adversarial schedules: levels non-decreasing, "
         "termination within 3+2+2 budget, shift=>local, out-of-reach=>global")


# -- 6. perception soundness ----------------------------------------------------------------


def test_criterion_6_perception_soundness():
    import json
    from importlib import resources

    scene_names = [
        "bedroom", "move_toy", "transfer_all_toys", "move_cup_and_toy",
        "gather_cups", "place_fruit", "fruit_among_cups", "prepare_cup", "tidy_table",
    ]
    for name in scene_names:
        raw = json.loads(
            resources.files("homeloop").joinpath(f"data/scenes/{name}.json").read_text("utf-8")
        )
        world = make_world(raw)
        belief = Belief()
        gmap = explore_global(world, belief)
        assert {f.id for f in gmap.furniture} == set(world.furniture)
        free_reachable = world.reachable
        explored_free = gmap.explored_mask & world.grid.free
        coverage = (explored_free & free_reachable).bit_count() / max(1, free_reachable.bit_count())
        assert coverage >= 0.99, f"{name}: coverage {coverage:.3f}"
        for fid, furn in sorted(world.furniture.items()):
            if not furn.is_receptacle:
                continue
            assert world.apply_action(ActionRequest(verb="navigate", target=fid)).success
            belief.at_receptacle = fid
            lmap = explore_local(world, belief, fid)
            assert {o.id for o in lmap.items} == set(world.objects_rooted_at(fid)), (name, fid)
            for item in lmap.items:
                assert item.category == world.objects[item.id].spec.category

    # close-up truthfulness including the phantom/doll unmasking case
    world = make_world(DOLL_SCENE, **zero_noise(p_false_positive=1.0))
    belief = Belief()
    explore_global(world, belief)
    assert world.apply_action(ActionRequest(verb="navigate", target="table_0")).success
    belief.at_receptacle = "table_0"
    lmap = explore_local(world, belief, "table_0")
    for item in lmap.items:
        obs = report_observation(world, belief, item)
        seen = obs.find(item.id)
        if item.id in world.phantoms:
            assert seen.category == world.phantoms[item.id].reveal_category
        else:
            truth = world.objects[item.id].spec
            assert seen.category == truth.category
            assert seen.attributes == frozenset(truth.attributes)
    note("6: PASS — zero-noise maps equal ground truth on all 9 bundled scenes, "
         "coverage >= 99% of reachable free cells, close-ups truthful incl. phantom unmasking")


# -- 7. plan DSL diagnostics and closed-loop repair --------------------------------------------


def test_criterion_7_dsl_diagnostics_closed_loop_repair():
    from homeloop.config import TaskSpec, parse_config
    from homeloop.goals import parse_goal

    desk = {
        "name": "desk",
        "room": {"width": 3.0, "height": 3.0},
        "robot_start": {"x": 1.5, "y": 0.6},
        "furniture": [
            {"id": "table_0", "category": "table",
             "footprint": [[0.9, 1.2], [2.1, 1.2], [2.1, 2.0], [0.9, 2.0]], "surface_height": "mid"},
        ],
        "objects": [
            {"id": "fruit_0", "category": "fruit", "on": "table_0", "offset": [-0.2, -0.1]},
            {"id": "plate_0", "category": "plate", "on": "table_0", "offset": [0.3, 0.0],
             "receptacle": True, "extent": [0.3, 0.3]},
        ],
        "noise": {"rng_seed": 0},
    }
    task = TaskSpec(
        id="demo", name="demo", instruction="Put the fruit on the plate.",
        scene=parse_config(desk),
        goal=parse_goal({"on": {"object": {"id": "fruit_0"}, "receptacle": {"id": "plate_0"}}}),
        trial_count=1,
    )
    options = TrialOptions(noise=zero_noise())

    # case A: place before any grasp -> typed diagnostic -> corrected plan wins
    backend = TranscriptBackend(replies=[
        "```\nexplore_global()\nnavigate(table_0)\nexplore_local(table_0)\n```",
        "```\nplace(plate_0)\n```",
        "```\ngrasp(fruit_0)\nplace(plate_0)\n```",
        '```\ndone("finished")\n```',
    ])
    report = run_trial(task, ChatModelPlanner(backend), seed=0, options=options)
    assert report.outcome == "success"
    records = [(r.cause, r.replanned, r.recovered) for r in report.failure_records]
    assert records == [("api_call_error", True, True)]
    assert any(
        "place without prior grasping" in m["content"]
        for messages in backend.requests_seen for m in messages
    )

    # case B: navigate with a quoted name -> parse diagnostic -> repaired call
    backend2 = TranscriptBackend(replies=[
        "```\nexplore_global()\n```",
        '```\nnavigate("table")\n```',
        "```\nnavigate(table_0)\nexplore_local(table_0)\ngrasp(fruit_0)\n```",
        "```\nplace(plate_0)\n```",
        '```\ndone("finished")\n```',
    ])
    report2 = run_trial(task, ChatModelPlanner(backend2), seed=0, options=options)
    assert report2.outcome == "success"
    assert any(
        "expected object reference, got string literal" in m["content"]
        for messages in backend2.requests_seen for m in messages
    )
    repairs = [e for e in report2.events if e["event"] == "plan" and e["repairs"] == 1]
    assert len(repairs) == 1
    note("7: PASS — place-without-grasp and navigate-with-string produce their "
         "typed diagnostics; transcript planners repair both and complete the task")


# -- 8. determinism and replay ----------------------------------------------------------------


def test_criterion_8_determinism_and_replay(tmp_path):
    suite = load_builtin_suite("benchmark")
    suite.tasks = [t for t in suite.tasks if t.id in ("A1", "A4", "B3")]
    for t in suite.tasks:
        t.trial_count = 2
    options = TrialOptions(noise=resolve_noise_profile("default"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_suite(suite, ScriptedPlanner, out_dir=str(out_a), options=options, base_seed=7)
    run_suite(suite, ScriptedPlanner, out_dir=str(out_b), options=options, base_seed=7)
    compared = 0
    for task in suite.tasks:
        for i in range(task.trial_count):
            a_bytes = (out_a / task.id / f"{i}.jsonl").read_bytes()
            b_bytes = (out_b / task.id / f"{i}.jsonl").read_bytes()
            assert a_bytes == b_bytes, f"{task.id}/{i} differs"
            compared += 1

    report = run_trial(
        mini_task(), ScriptedPlanner(), seed=11,
        options=TrialOptions(noise=zero_noise(p_grasp_fail=0.4)),
    )
    buf = io.StringIO()
    write_trace(report, buf)
    loaded = load_trace(io.StringIO(buf.getvalue()))
    assert loaded == report
    assert replay_matches(loaded)
    note(f"8: PASS — {compared} trace files byte-identical across reruns; "
         "write/load round-trip is the identity; replay re-derives identical verdicts")


# -- 9. chat adapter contract --------------------------------------------------------------------


def test_criterion_9_llm_adapter_contract(monkeypatch):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    from homeloop.planning import DialogueHistory, PlannerView

    task = mini_task()

    with MockChatServer(["```\nexplore_global()\n```"]) as server:
        planner = ChatModelPlanner(HttpChatBackend(base_url=server.base_url))
        step = planner.next_step(task, DialogueHistory(instruction=task.instruction),
                                 PlannerView(belief=Belief()))
        assert step == Call("explore_global", None)

    with MockChatServer(['```\nnavigate("table")\n```', "```\nexplore_global()\n```"]) as server:
        planner = ChatModelPlanner(HttpChatBackend(base_url=server.base_url))
        step = planner.next_step(task, DialogueHistory(instruction=task.instruction),
                                 PlannerView(belief=Belief()))
        assert step == Call("explore_global", None)
        assert planner.last_repairs == 1

    dead = ChatModelPlanner(HttpChatBackend(base_url="http://127.0.0.1:9", timeout=0.5))
    invalid = run_trial(task, dead, seed=0, options=TrialOptions(noise=zero_noise()))
    assert invalid.outcome == "infrastructure-invalid"
    ok = run_trial(task, ScriptedPlanner(), seed=0, options=TrialOptions(noise=zero_noise()))
    table = compute_metrics([invalid, ok])
    assert table.invalid_trials == 1
    assert table.total_row.sr.render() == "1/1"
    assert "1 infrastructure-invalid" in table.render_text()
    note("9: PASS — mock server: well-formed reply parses; malformed reply repaired "
         "with exactly one repair; unreachable endpoint excluded from SR with a count note")
