"""Planner boundary: plan DSL, prompt assembly, scripted policy, chat adapter."""

from .base import Planner, PlannerView
from .dsl import Call, Done, Loc, ParseError, PlanStep, Ref, Str, parse_plan, to_request
from .prompts import (
    SYSTEM_PROMPT,
    DialogueHistory,
    assemble_prompt,
    estimate_tokens,
    render_view,
)
from .scripted import ScriptedPlanner, scripted_next_step
from .adapter import API_KEY_ENV, ChatBackend, ChatModelPlanner, HttpChatBackend

__all__ = [
    "API_KEY_ENV",
    "Call",
    "ChatBackend",
    "ChatModelPlanner",
    "DialogueHistory",
    "Done",
    "HttpChatBackend",
    "Loc",
    "ParseError",
    "Planner",
    "PlannerView",
    "PlanStep",
    "Ref",
    "SYSTEM_PROMPT",
    "ScriptedPlanner",
    "Str",
    "assemble_prompt",
    "estimate_tokens",
    "parse_plan",
    "render_view",
    "scripted_next_step",
    "to_request",
]
