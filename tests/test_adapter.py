from __future__ import annotations

import json

import pytest

from homeloop.errors import BudgetExceeded, TransportError
from homeloop.harness import TrialOptions, run_trial
from homeloop.metrics import compute_metrics
from homeloop.perception import Belief
from homeloop.planning import (
    Call,
    ChatModelPlanner,
    DialogueHistory,
    Done,
    HttpChatBackend,
    PlannerView,
    Ref,
    Str,
)

from mock_llm import MockChatServer, TranscriptBackend
from conftest import mini_task, zero_noise


def fresh_view() -> PlannerView:
    return PlannerView(belief=Belief())


def ask(planner, task=None):
    task = task or mini_task()
    return planner.next_step(task, DialogueHistory(instruction=task.instruction), fresh_view())


def test_wellformed_reply_parses_to_plan_step(monkeypatch):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    with MockChatServer(["```\nexplore_global()\nnavigate(table_0)\n```"]) as server:
        planner = ChatModelPlanner(HttpChatBackend(base_url=server.base_url))
        step = ask(planner)
        assert step == Call("explore_global", None)
        assert planner.pending == [Call("navigate", Ref("table_0"))]
        assert planner.last_repairs == 0
        body = server.requests[0]
        assert body["messages"][0]["role"] == "system"
        assert body["temperature"] == 0.0
        assert body["max_tokens"] == 512
        assert body["model"] == "gpt-4o"


def test_malformed_then_repaired_records_one_repair(monkeypatch):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    replies = ['```\nnavigate("table")\n```', "```\nnavigate(table_0)\n```"]
    with MockChatServer(replies) as server:
        planner = ChatModelPlanner(HttpChatBackend(base_url=server.base_url))
        step = ask(planner)
        assert step == Call("navigate", Ref("table_0"))
        assert planner.last_repairs == 1
        assert len(server.requests) == 2
        repair_messages = server.requests[1]["messages"]
        assert any("string literal" in m["content"] for m in repair_messages)


def test_persistently_malformed_exceeds_budget(monkeypatch):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    with MockChatServer(["gibberish without calls ???"]) as server:
        planner = ChatModelPlanner(HttpChatBackend(base_url=server.base_url))
        with pytest.raises(BudgetExceeded):
            ask(planner)
        assert len(server.requests) == 3  # original + two repair rounds


def test_unreachable_endpoint_yields_infrastructure_invalid(monkeypatch):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    backend = HttpChatBackend(base_url="http://127.0.0.1:9", timeout=0.5)
    planner = ChatModelPlanner(backend)
    task = mini_task()
    report = run_trial(task, planner, seed=0, options=TrialOptions(noise=zero_noise()))
    assert report.outcome == "infrastructure-invalid"
    # excluded from SR with a count note; a lone invalid report still tables
    ok = run_trial(task, __import__("homeloop.planning", fromlist=["ScriptedPlanner"]).ScriptedPlanner(),
                   seed=0, options=TrialOptions(noise=zero_noise()))
    table = compute_metrics([report, ok])
    assert table.invalid_trials == 1
    assert table.total_row.sr.den == 1
    assert "1 infrastructure-invalid" in table.render_text()


def test_missing_credential_is_transport_error(monkeypatch):
    monkeypatch.delenv("COME_LLM_API_KEY", raising=False)
    with pytest.raises(TransportError) as exc:
        HttpChatBackend(base_url="http://127.0.0.1:9")
    assert "missing credential" in str(exc.value)


def test_transcript_replay_is_deterministic(zero_options):
    replies = [
        "```\nexplore_global()\n```",
        "```\nnavigate(table_0)\nexplore_local(table_0)\ngrasp(toy_0)\n```",
        "```\nnavigate(bed_0)\nplace(bed_0)\n```",
        '```\ndone("finished")\n```',
    ]
    task = mini_task()

    def run_once():
        planner = ChatModelPlanner(TranscriptBackend(replies=list(replies)))
        report = run_trial(task, planner, seed=0, options=zero_options)
        return report.outcome, [e["text"] for e in report.events if e["event"] == "plan"]

    first = run_once()
    second = run_once()
    assert first == second
    assert first[0] == "success"


def test_transcript_from_file(tmp_path, zero_options):
    path = tmp_path / "transcript.json"
    path.write_text(json.dumps({"replies": ["```\nexplore_global()\n```", '```\ndone("nothing to do")\n```']}))
    backend = TranscriptBackend.from_file(str(path))
    planner = ChatModelPlanner(backend)
    task = mini_task()
    step = ask(planner, task)
    assert step == Call("explore_global", None)


def test_stale_pending_steps_trigger_fresh_completion(monkeypatch):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    # the second queued step references an id that is in no map: it must be
    # dropped and a fresh completion requested
    replies = ["```\nexplore_global()\ngrasp(ghost_9)\n```", "```\nexplore_global()\n```"]
    with MockChatServer(replies) as server:
        planner = ChatModelPlanner(HttpChatBackend(base_url=server.base_url))
        first = ask(planner)
        assert first == Call("explore_global", None)
        second = ask(planner)
        assert second == Call("explore_global", None)
        assert len(server.requests) == 2
        assert planner.pending == []


@pytest.mark.parametrize("queued", [Done("finished"), Call("report_observation", Str("stay"))],
                         ids=["done", "string-argument"])
def test_a_queued_step_that_names_no_map_reference_is_taken_without_a_completion(queued):
    planner = ChatModelPlanner(TranscriptBackend(replies=[]))  # a completion would raise
    planner.pending = [queued]
    assert ask(planner) == queued


def test_a_queued_step_that_is_not_a_call_is_dropped():
    backend = TranscriptBackend(replies=["```\nexplore_global()\n```"])
    planner = ChatModelPlanner(backend)
    planner.pending = ["navigate(table_0)"]  # unparsed text: only parse_plan fills the queue
    assert ask(planner) == Call("explore_global", None)
    assert len(backend.requests_seen) == 1


@pytest.mark.parametrize(
    "status, raw_body, message",
    [
        pytest.param(500, None, "chat endpoint returned HTTP 500", id="http-500"),
        pytest.param(200, b"<html>not json</html>", "malformed chat completion body", id="body-not-json"),
    ],
)
def test_bad_endpoint_reply_yields_infrastructure_invalid(monkeypatch, status, raw_body, message):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    with MockChatServer(["```\nexplore_global()\n```"], status=status, raw_body=raw_body) as server:
        planner = ChatModelPlanner(HttpChatBackend(base_url=server.base_url))
        with pytest.raises(TransportError, match=message):
            ask(planner)
        report = run_trial(mini_task(), planner, seed=0, options=TrialOptions(noise=zero_noise()))
    assert report.outcome == "infrastructure-invalid"
    assert report.reason.startswith(f"transport: {message}")


def test_the_request_carries_the_bearer_key_and_a_json_content_type(monkeypatch):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    with MockChatServer(["```\nexplore_global()\n```"]) as server:
        ask(ChatModelPlanner(HttpChatBackend(base_url=server.base_url)))
    headers = server.headers[0]
    assert headers["Authorization"] == "Bearer test-key"
    assert headers["Content-Type"] == "application/json"


@pytest.mark.parametrize(
    "server_options, timeout, message",
    [
        # a success status other than 200 is still no completion
        pytest.param({"status": 202}, 30.0, "chat endpoint returned HTTP 202", id="http-202"),
        pytest.param({"delay": 0.4}, 0.1, "chat endpoint unreachable: ", id="reply-after-the-timeout"),
    ],
)
def test_an_accepted_or_late_reply_yields_infrastructure_invalid(monkeypatch, server_options, timeout, message):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    with MockChatServer(["```\nexplore_global()\n```"], **server_options) as server:
        backend = HttpChatBackend(base_url=server.base_url, timeout=timeout)
        report = run_trial(mini_task(), ChatModelPlanner(backend), seed=0, options=TrialOptions(noise=zero_noise()))
    assert report.outcome == "infrastructure-invalid"
    assert report.reason.startswith(f"transport: {message}")
