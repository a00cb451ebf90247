"""External chat-model planner.

Speaks the common chat-completions JSON shape: a role-tagged message list in,
a choice list out. The credential comes from the COME_LLM_API_KEY environment
variable. Replies are parsed through the plan DSL; a reply that fails the
static checks triggers an automatic repair round-trip with the rendered error
appended, at most ``MAX_REPAIR_ROUNDS`` times. Decoding is greedy
(temperature 0, at most 512 reply tokens).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Protocol

from ..errors import BudgetExceeded, TransportError
from .base import PlannerView
from .dsl import Call, Done, ParseError, PlanStep, Ref, parse_plan
from .prompts import DialogueHistory, assemble_prompt

API_KEY_ENV = "COME_LLM_API_KEY"
DEFAULT_MODEL = "gpt-4o"
DEFAULT_TIMEOUT_S = 30.0
TEMPERATURE = 0.0
MAX_TOKENS = 512
MAX_REPAIR_ROUNDS = 2


class ChatBackend(Protocol):
    def complete(self, messages: list[dict[str, str]]) -> str:  # pragma: no cover - protocol
        ...


@dataclass
class HttpChatBackend:
    """Minimal chat-completions client over HTTP."""

    base_url: str
    model: str = DEFAULT_MODEL
    timeout: float = DEFAULT_TIMEOUT_S
    api_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.api_key is None:
            self.api_key = os.environ.get(API_KEY_ENV)
        if not self.api_key:
            raise TransportError(f"missing credential: set {API_KEY_ENV}")

    def complete(self, messages: list[dict[str, str]]) -> str:
        import http.client  # with urllib.request it loads ssl, so only the HTTP path pays for it
        import urllib.request
        from urllib.error import HTTPError

        body = {
            "model": self.model,
            "messages": messages,
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"}
        try:
            request = urllib.request.Request(self.base_url.rstrip("/") + "/chat/completions",
                                             data=json.dumps(body).encode("utf-8"), headers=headers)
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status, raw = resp.status, resp.read()  # a timeout while reading raises a bare TimeoutError
        except HTTPError as exc:  # every status from 400 up, and a redirect of the POST that urllib refuses
            raise TransportError(f"chat endpoint returned HTTP {exc.code}") from exc
        except (OSError, ValueError, http.client.HTTPException) as exc:  # no connection, a bad URL, a garbled reply
            raise TransportError(f"chat endpoint unreachable: {exc}") from exc
        if status != 200:
            raise TransportError(f"chat endpoint returned HTTP {status}")
        try:
            return json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat completion body: {exc}") from exc


class ChatModelPlanner:
    """Planner that asks a chat model for the next sub-plan.

    Multi-step replies are accepted: the first step executes now, the rest is
    queued but re-validated against fresh maps before each use — stale steps
    force a fresh completion.
    """

    def __init__(self, backend: ChatBackend) -> None:
        self.backend = backend
        self.pending: list[PlanStep] = []
        self.last_repairs = 0

    def next_step(self, task, history: DialogueHistory, view: PlannerView) -> PlanStep:
        self.last_repairs = 0
        if self.pending:
            step = self.pending.pop(0)
            if self._still_valid(step, view):
                return step
            self.pending.clear()

        messages = assemble_prompt(history, view)
        last_error: Optional[ParseError] = None
        for _ in range(MAX_REPAIR_ROUNDS + 1):
            text = self.backend.complete(messages)
            try:
                steps = parse_plan(text, gripper_occupied=view.belief.holding is not None)
            except ParseError as exc:
                last_error = exc
                self.last_repairs += 1
                messages = messages + [
                    {"role": "assistant", "content": text},
                    {"role": "user", "content": exc.render()},
                ]
                continue
            self.pending = steps[1:]
            return steps[0]
        self.last_repairs -= 1  # the final failed round is not a repair, it is the give-up
        raise BudgetExceeded(
            f"plan still malformed after {MAX_REPAIR_ROUNDS} repair round(s): {last_error}"
        )

    def _still_valid(self, step: PlanStep, view: PlannerView) -> bool:
        if isinstance(step, Done):
            return True
        if not isinstance(step, Call):
            return False
        if not isinstance(step.arg, Ref):
            return True
        ref, belief = step.arg.name, view.belief
        if step.verb == "navigate":
            return belief.furniture(ref) is not None
        if step.verb in ("grasp", "report_observation"):
            return ref in belief.objects or belief.local_item(ref) is not None
        if step.verb == "place":
            return belief.furniture(ref) is not None or ref in belief.objects
        return True
