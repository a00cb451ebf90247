from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.perception import Belief
from homeloop.planning import (
    Call,
    DialogueHistory,
    Done,
    Loc,
    ParseError,
    PlannerView,
    Ref,
    ScriptedPlanner,
    Str,
    SYSTEM_PROMPT,
    assemble_prompt,
    estimate_tokens,
    parse_plan,
    render_plan,
    scripted_next_step,
    to_request,
)

from conftest import mini_task, zero_noise


# --- DSL ------------------------------------------------------------------------


def test_parse_simple_plan():
    steps = parse_plan("grasp(cup_1)\nplace(plate_0)", gripper_occupied=False)
    assert steps == [Call("grasp", Ref("cup_1")), Call("place", Ref("plate_0"))]


def test_parse_extracts_first_fenced_block():
    text = "Sure, here is the plan:\n```python\nnavigate(table_0)\n```\nand some chatter"
    assert parse_plan(text) == [Call("navigate", Ref("table_0"))]


def test_place_without_grasp_gets_warning():
    steps = parse_plan("place(plate_0)")
    assert isinstance(steps[0], Call)
    assert steps[0].warning is not None and "grasp" in steps[0].warning
    # a prior grasp in the same plan or a held object suppresses it
    assert parse_plan("grasp(cup_1)\nplace(plate_0)")[1].warning is None
    assert parse_plan("place(plate_0)", gripper_occupied=True)[0].warning is None


def test_navigate_with_string_literal_rejected():
    with pytest.raises(ParseError) as exc:
        parse_plan('navigate("table")')
    assert "expected object reference, got string literal" in exc.value.message
    assert exc.value.line_number == 1
    assert "navigate(table_0)" in exc.value.hint


def test_unknown_verb_rejected_with_hint():
    with pytest.raises(ParseError) as exc:
        parse_plan("fly(moon)")
    assert "unknown verb" in exc.value.message
    assert "grasp" in exc.value.hint


def test_arity_errors():
    with pytest.raises(ParseError):
        parse_plan("explore_global(table_0)")
    with pytest.raises(ParseError):
        parse_plan("grasp()")
    with pytest.raises(ParseError):
        parse_plan('report_observation("sideways")')


def test_location_form_and_modes():
    steps = parse_plan('place(table_0:0.25,-0.1)\nreport_observation("stay")\ndone("all set")')
    assert steps[0] == Call("place", Loc("table_0", (0.25, -0.1)))
    assert steps[1] == Call("report_observation", Str("stay"))
    assert steps[2] == Done("all set")


def test_empty_plan_rejected():
    with pytest.raises(ParseError):
        parse_plan("# just a comment\n")


def test_to_request_lowering():
    request = to_request(Call("place", Loc("table_0", (0.1, 0.2))))
    assert request.location == ("table_0", (0.1, 0.2))
    request = to_request(Call("report_observation", Str("rest")))
    assert request.target == "rest" and request.params.get("string_literal")


_REF = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("done",)
)
_STEP = st.one_of(
    st.builds(lambda r: Call("navigate", Ref(r)), _REF),
    st.builds(lambda r: Call("grasp", Ref(r)), _REF),
    st.builds(lambda r: Call("place", Ref(r)), _REF),
    st.builds(lambda r: Call("explore_local", Ref(r)), _REF),
    st.just(Call("explore_global", None)),
    st.builds(lambda r: Call("report_observation", Ref(r)), _REF),
    st.sampled_from([Call("report_observation", Str("stay")), Call("report_observation", Str("rest"))]),
    st.builds(
        lambda r, dx, dy: Call("place", Loc(r, (dx, dy))),
        _REF,
        st.floats(min_value=-9, max_value=9, allow_nan=False).map(lambda v: round(v, 3)),
        st.floats(min_value=-9, max_value=9, allow_nan=False).map(lambda v: round(v, 3)),
    ),
    st.builds(Done, st.text(alphabet="abc xyz", max_size=12)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=8))
def test_render_parse_round_trip(steps):
    assert parse_plan(render_plan(steps), gripper_occupied=True) == steps


# --- prompt assembly -----------------------------------------------------------------


def test_empty_history_is_system_plus_instruction():
    history = DialogueHistory(instruction="Tidy up.")
    view = PlannerView(belief=Belief())
    messages = assemble_prompt(history, view)
    assert [m["role"] for m in messages] == ["system", "user"]
    assert "Tidy up." in messages[1]["content"]


def test_system_prompt_has_five_sections():
    headers = [line for line in SYSTEM_PROMPT.splitlines() if line.startswith("# ")]
    assert headers == [
        "# Task Description",
        "# Feedback Handling",
        "# Robot Setup and Skills Library",
        "# Response Guidelines",
        "# Useful Tips",
    ]


def test_system_prompt_bytes_are_pinned():
    """The prompt as the five-field template rendered it before it became a
    constant. Traces hold no prompt text, so only this shows a prompt edit."""
    digest = hashlib.sha256(SYSTEM_PROMPT.encode("utf-8")).hexdigest()
    assert digest == "88ce2b3ab4184e67f5f9f2e55fd3f6fd25b1872f18124a0849434d7076b7f974"


def test_last_message_carries_latest_fault_string():
    history = DialogueHistory(instruction="Move the toy.")
    history.append_plan("grasp(toy_0)")
    history.append_feedback("[3] grasp -> FAILED: grasp failed")
    view = PlannerView(belief=Belief())
    messages = assemble_prompt(history, view)
    assert "grasp failed" in messages[-1]["content"]


def test_elision_keeps_budget_and_sections():
    history = DialogueHistory(instruction="Do everything.")
    for i in range(200):
        history.append_plan(f"navigate(table_{i % 3})")
        history.append_feedback(f"[{i}] navigate -> ok: arrived " + "x" * 300)
        history.append_observation("stay: " + "y" * 200)
    view = PlannerView(belief=Belief())
    budget = 8000
    messages = assemble_prompt(history, view, token_budget=budget)
    total = sum(estimate_tokens(m["content"]) for m in messages)
    assert total <= budget
    assert "# Useful Tips" in messages[0]["content"]  # sections intact
    elided = [m for m in messages if m["content"].endswith("[elided]")]
    assert elided, "old feedback bodies should elide first"
    # the oldest feedback elides before the newest
    bodies = [m["content"] for m in messages if m["role"] == "user" and "feedback" in m["content"]]
    assert bodies[0].endswith("[elided]")
    assert not bodies[-1].endswith("[elided]")


def test_assembly_deterministic():
    history = DialogueHistory(instruction="Move the toy.")
    history.append_plan("explore_global()")
    history.append_feedback("[0] explore_global -> ok: global map built")
    view = PlannerView(belief=Belief())
    a = assemble_prompt(history, view)
    b = assemble_prompt(history, view)
    assert a == b


# --- scripted policy ------------------------------------------------------------------


def test_scripted_starts_with_exploration():
    task = mini_task()
    step = scripted_next_step(task, DialogueHistory(instruction=task.instruction), PlannerView(belief=Belief()))
    assert step == Call("explore_global", None)


def test_scripted_move_toy_zero_noise_sequence(zero_options):
    from homeloop.harness import run_trial

    task = mini_task()
    report = run_trial(task, ScriptedPlanner(), seed=0, options=zero_options)
    plans = [e["text"] for e in report.events if e["event"] == "plan"]
    assert plans == [
        "explore_global()",
        "navigate(table_0)",
        "explore_local(table_0)",
        "grasp(toy_0)",
        "navigate(bed_0)",
        "place(bed_0)",
        'done("goal satisfied")',
    ]
    assert report.execution_steps == 4
    assert report.outcome == "success"


def test_scripted_gather_cups_picks_fuller_table(zero_options):
    from homeloop.harness import load_builtin_suite, run_trial
    from homeloop.world import vary_config

    suite = load_builtin_suite("acceptance")
    task = next(t for t in suite.tasks if t.id == "A4")
    # find a trial seed whose variation deals the cups 1 vs 2 across tables
    for seed in range(30):
        layout = {o.id: o.on for o in vary_config(task.scene, seed).objects}
        counts = {}
        for parent in layout.values():
            counts[parent] = counts.get(parent, 0) + 1
        if sorted(counts.values()) == [1, 2]:
            break
    else:
        raise AssertionError("no 1-2 split found in 30 seeds")
    majority = max(counts, key=lambda rid: counts[rid])
    minority_cup = next(oid for oid, parent in layout.items() if parent != majority)
    report = run_trial(task, ScriptedPlanner(), seed=seed, options=zero_options)
    assert report.outcome == "success"
    plans = [e["text"] for e in report.events if e["event"] == "plan"]
    # exactly the lone cup moves, onto the table already holding two
    assert plans.count(f"grasp({minority_cup})") == 1
    assert plans.count(f"place({majority})") == 1
    moved = [p for p in plans if p.startswith("grasp(")]
    assert moved == [f"grasp({minority_cup})"]


def test_scripted_done_when_goal_already_satisfied(zero_options):
    # trial level: the policy confirms by scanning, then stops without moving
    from homeloop.goals import parse_goal
    from homeloop.harness import run_trial

    task = mini_task(goal=parse_goal({"on": {"object": {"id": "toy_0"}, "receptacle": {"id": "table_0"}}}),
                     id="noop")
    report = run_trial(task, ScriptedPlanner(), seed=0, options=zero_options)
    assert report.outcome == "success"
    plans = [e["text"] for e in report.events if e["event"] == "plan"]
    assert not any(p.startswith(("grasp(", "place(")) for p in plans)

    # policy level: a belief that already shows the goal satisfied yields an
    # immediate done
    from homeloop.perception import explore_global, explore_local
    from conftest import make_world, MINI_SCENE
    from homeloop.world import ActionRequest

    world = make_world(MINI_SCENE)
    belief = Belief()
    explore_global(world, belief)
    world.apply_action(ActionRequest(verb="navigate", target="table_0"))
    belief.at_receptacle = "table_0"
    explore_local(world, belief, "table_0")
    step = scripted_next_step(task, DialogueHistory(instruction=task.instruction), PlannerView(belief=belief))
    assert isinstance(step, Done)


def test_scripted_purity_same_view_same_step():
    from homeloop.perception import explore_global
    from conftest import make_world, MINI_SCENE

    world = make_world(MINI_SCENE)
    belief = Belief()
    explore_global(world, belief)
    task = mini_task()
    history = DialogueHistory(instruction=task.instruction)
    view = PlannerView(belief=belief)
    a = scripted_next_step(task, history, view)
    b = scripted_next_step(task, history, view)
    assert a == b
