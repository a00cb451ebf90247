"""The step loop's per-step work does not grow with the trial.

Prompt assembly reads each history entry's stored content and token count,
and the belief's placement view is built once per belief version. Both are
shown by counting calls, not by timing. The elision branch, which no
``long_horizon`` prompt reaches, is pinned against the assembly as it was
before entries carried their own counts.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter

import pytest

import homeloop.planning.prompts as prompts
import homeloop.verification as verification
from homeloop.config import resolve_noise_profile
from homeloop.harness import TrialOptions, run_trial
from homeloop.perception import Belief
from homeloop.planning import DialogueHistory, PlannerView, assemble_prompt, estimate_tokens
from homeloop.skills import ActionRequest, SkillContext, dispatch
from homeloop.verification import verify_feasibility

from conftest import MINI_SCENE, make_world, mini_task, zero_noise

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_assemble_prompt(history, view, token_budget=8000):
    """``assemble_prompt`` as it was when it re-rendered and re-estimated
    every history message on every call."""
    messages = [
        {"role": "system", "content": prompts.SYSTEM_PROMPT},
        {"role": "user", "content": f"Instruction: {history.instruction}"},
    ]
    if not history.entries:
        return messages
    body_entries = []
    for entry in history.entries:
        role = "assistant" if entry.kind == "plan" else "user"
        prefix = {"plan": "", "feedback": "feedback: ", "observation": "observation: ", "note": "note: "}[
            entry.kind
        ]
        message = {"role": role, "content": prefix + entry.text}
        messages.append(message)
        if entry.elidable:
            body_entries.append(message)
    tail = prompts.render_view(view)
    last_fb = history.last_feedback_text()
    if last_fb:
        tail += f"\nlast feedback: {last_fb}"
    messages.append({"role": "user", "content": tail + "\nNext step?"})

    total = sum(estimate_tokens(m["content"]) for m in messages)
    for message in body_entries:  # oldest first
        if total <= token_budget:
            break
        saved = estimate_tokens(message["content"])
        head = message["content"].split(":", 1)[0]
        message["content"] = f"{head}: [elided]"
        total -= saved - estimate_tokens(message["content"])
    return messages


def random_history(n: int, seed: int = 0) -> DialogueHistory:
    """``n`` entries of every kind, with bodies of 0 to 400 characters, some
    of which hold colons of their own."""
    rng = random.Random(seed)
    history = DialogueHistory(instruction="Put every cup on the table.")
    for i in range(n):
        body = "".join(rng.choice("abc d:") for _ in range(rng.randrange(401)))
        history.append(rng.choice(("plan", "feedback", "observation", "note")), f"[{i}] {body}")
    return history


def scanned_view() -> PlannerView:
    """A belief with a global map, one local map and a feasibility line."""
    ctx = SkillContext(make_world(MINI_SCENE, **zero_noise()), Belief())
    for verb, target in (("explore_global", None), ("navigate", "table_0"), ("explore_local", "table_0")):
        dispatch(ctx, ActionRequest(verb=verb, target=target))
    return PlannerView(belief=ctx.belief, feasibility=verify_feasibility(mini_task().goal, ctx.belief))


@pytest.mark.parametrize("budget", [400, 2000, 8000])
def test_elision_matches_the_reference_assembly(budget, monkeypatch):
    history = random_history(600)
    view = scanned_view()
    expected = reference_assemble_prompt(history, view, budget)
    monkeypatch.setattr(prompts, "TOKEN_BUDGET", budget)
    assert assemble_prompt(history, view) == expected
    assert any(m["content"].endswith(": [elided]") for m in expected)


def test_short_and_empty_histories_match_the_reference_assembly():
    view = scanned_view()
    for history in (DialogueHistory(instruction="Tidy up."), random_history(10, seed=1)):
        expected = reference_assemble_prompt(history, view)
        assert assemble_prompt(history, view) == expected


def history_snapshot(history):
    """Each entry's fields and a plain copy of its message."""
    return [(e.kind, e.text, e.elidable, e.tokens, dict(e.message)) for e in history.entries]


def test_elision_leaves_the_history_as_it_was(monkeypatch):
    history = random_history(600)
    view = scanned_view()
    before = history_snapshot(history)
    monkeypatch.setattr(prompts, "TOKEN_BUDGET", 400)
    assert any(m["content"].endswith(": [elided]") for m in assemble_prompt(history, view))
    assert history_snapshot(history) == before
    assert history.messages == [e.message for e in history.entries]
    # a large budget elides nothing: no elided text leaked into the history
    budget = 10 * history.tokens
    monkeypatch.setattr(prompts, "TOKEN_BUDGET", budget)
    assert assemble_prompt(history, view) == reference_assemble_prompt(history, view, budget)


def test_changing_a_returned_prompt_leaves_the_next_one_as_it_was():
    history = random_history(10, seed=2)
    view = scanned_view()
    expected = reference_assemble_prompt(history, view)
    messages = assemble_prompt(history, view)
    with pytest.raises(TypeError):
        messages[2]["content"] = "changed"  # a history message is read-only
    with pytest.raises(TypeError):
        messages[3].update(content="changed")
    copied = dict(messages[2])  # a copy is the caller's own
    copied["content"] = "changed"
    for message in (messages[0], messages[1], messages[-1]):  # made for this call
        message["content"] = "changed"
    del messages[3:5]
    messages.append({"role": "user", "content": "extra"})
    assert assemble_prompt(history, view) == expected


def test_history_keeps_a_running_token_total():
    history = random_history(600)
    assert history.tokens == sum(e.tokens for e in history.entries)
    assert history.tokens == sum(estimate_tokens(e.content) for e in history.entries)
    assert DialogueHistory("x", list(history.entries)).tokens == history.tokens


def test_prompt_assembly_estimates_the_same_number_of_texts_for_any_history(monkeypatch):
    """Without elision a call estimates the same texts for any history
    length; elision estimates each elided message as it always has."""
    view = scanned_view()
    histories = {n: random_history(n) for n in (10, 600)}
    budget = 10 * max(h.tokens for h in histories.values())  # elides nothing
    calls = Counter()

    def counting(text: str) -> int:
        calls["n"] += 1
        return estimate_tokens(text)

    monkeypatch.setattr(prompts, "estimate_tokens", counting)
    monkeypatch.setattr(prompts, "TOKEN_BUDGET", budget)
    per_call = {}
    for n, history in histories.items():
        calls.clear()
        messages = assemble_prompt(history, view)
        assert not any(m["content"].endswith(": [elided]") for m in messages)
        per_call[n] = calls["n"]
    assert per_call[10] == per_call[600] == 2, per_call


def long_horizon_trial():
    """Task 0 of unit 0 of the benchmark's ``long_horizon`` workload at seed
    1, with the chat planner that workload drives it through."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS, ScriptedChatPlanner

    workload = WORKLOADS["long_horizon"]
    [(suite, base)] = workload.load(workload.docs(1, 0), 1, 0)
    task = suite.tasks[0]
    return task, ScriptedChatPlanner(), task.seed_for(0, base)


def test_one_goal_evaluation_per_belief_version_over_a_long_horizon_trial(monkeypatch):
    task, planner, seed = long_horizon_trial()
    evaluations = Counter()
    reads = []  # (belief, version) of each memo read, the last one the evaluation's
    derived, view = Belief.derived, verification.PlacementView

    def reading(belief):
        reads.append((id(belief), belief.version))
        return derived(belief)

    def evaluating(entities, holding):
        evaluations[reads[-1]] += 1
        return view(entities, holding)

    monkeypatch.setattr(Belief, "derived", reading)
    monkeypatch.setattr(verification, "PlacementView", evaluating)
    report = run_trial(task, planner, seed, 0, TrialOptions(noise=resolve_noise_profile("default")))
    feasibility_checks = sum(e["event"] == "feasibility" for e in report.events)
    assert report.execution_steps >= 30
    assert max(evaluations.values()) == 1
    # three readers per step (the harness's feasibility check, then the
    # planner's two goal reads) share one evaluation while the belief is unchanged
    assert sum(evaluations.values()) < feasibility_checks
