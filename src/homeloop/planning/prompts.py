"""Prompt assembly and dialogue history.

The system prompt has five fixed sections; the dialogue alternates the user's
instruction, the planner's emitted plans, and rendered feedback/observations.
Assembly is deterministic, and an approximate token budget elides the oldest
feedback and observation bodies first — section headers and the instruction
are never elided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..world import ALL_VERBS
from .base import PlannerView


def estimate_tokens(text: str) -> int:
    """Crude but deterministic: one token per four characters."""
    return max(1, (len(text) + 3) // 4)


@dataclass(frozen=True)
class PromptTemplate:
    task_description: str
    feedback_handling: str
    robot_setup_and_skills: str
    response_guidelines: str
    useful_tips: str

    def sections(self) -> list[tuple[str, str]]:
        return [
            ("Task Description", self.task_description),
            ("Feedback Handling", self.feedback_handling),
            ("Robot Setup and Skills Library", self.robot_setup_and_skills),
            ("Response Guidelines", self.response_guidelines),
            ("Useful Tips", self.useful_tips),
        ]

    def validate(self) -> None:
        for name, body in self.sections():
            if not body.strip():
                raise ValueError(f"prompt section {name!r} is empty")

    def render_system(self) -> str:
        return "\n\n".join(f"# {name}\n{body.strip()}" for name, body in self.sections())

    @cached_property
    def system_message(self) -> tuple[str, int]:
        """The validated system prompt and its token estimate, computed on
        first use (the template is frozen)."""
        self.validate()
        text = self.render_system()
        return text, estimate_tokens(text)


def default_template() -> PromptTemplate:
    skills = "\n".join(
        [
            "navigate(furniture_ref)        -- drive to a furniture item from the global map",
            "grasp(object_ref)              -- pick up an object from a local map",
            "place(receptacle_ref)          -- put the held object onto a receptacle",
            "place(receptacle_ref:dx,dy)    -- put it at a receptacle-relative offset in meters",
            "explore_global()               -- frontier-sweep the room, build the global furniture map",
            "explore_local(furniture_ref)   -- scan small objects on one furniture item",
            'report_observation(object_ref) -- close-up inspection: true category and attributes',
            'report_observation("stay")     -- wide capture from the current pose',
            'report_observation("rest")     -- wide capture from the rest pose',
            'done("message")                -- declare the task finished',
        ]
    )
    return PromptTemplate(
        task_description=(
            "You control a single-arm mobile robot in a household room. "
            "Follow the user's instruction by emitting one short plan at a time "
            "in the call language below. You see the world only through the maps "
            "and observations echoed back to you."
        ),
        feedback_handling=(
            "After every executed call you receive a feedback line: ok or FAILED "
            "plus a message. A FAILED line names the fault; fix the plan rather "
            "than repeating the same call blindly. Typical faults: grasp failed, "
            "place without prior grasping, target out of reach, navigation failed, "
            "target not visible."
        ),
        robot_setup_and_skills=(
            "The gripper holds at most one object. Reference tokens come from the "
            "maps (never invent ids, never pass a name in quotes where a reference "
            "is required). Available calls:\n" + skills
        ),
        response_guidelines=(
            "Reply with a fenced code block containing one call per line. "
            "Emit at most three calls per reply; the loop re-consults you after "
            f"each execution. Verbs: {', '.join(ALL_VERBS)}, done."
        ),
        useful_tips=(
            "Explore globally before navigating. Scan a table before grasping "
            "from it. Use close-ups to check attributes before committing to an "
            "object. If a needed object is missing here, try another receptacle."
        ),
    )


_PREFIX = {"plan": "", "feedback": "feedback: ", "observation": "observation: ", "note": "note: "}


@dataclass(frozen=True)
class HistoryEntry:
    """One dialogue message. Its chat content and its token estimate are
    rendered once, when the entry is made."""

    kind: str  # "plan" | "feedback" | "observation" | "note"
    index: int
    text: str
    elidable: bool = True
    role: str = field(init=False)
    content: str = field(init=False)
    tokens: int = field(init=False)

    def __post_init__(self) -> None:
        content = _PREFIX[self.kind] + self.text
        object.__setattr__(self, "role", "assistant" if self.kind == "plan" else "user")
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "tokens", estimate_tokens(content))


@dataclass
class DialogueHistory:
    """Ordered record of one trial's planner dialogue; ``tokens`` is the
    running token estimate of all its entries."""

    instruction: str
    entries: list[HistoryEntry] = field(default_factory=list)
    tokens: int = field(init=False)

    def __post_init__(self) -> None:
        self.tokens = sum(e.tokens for e in self.entries)

    def _append(self, kind: str, text: str, elidable: bool = True) -> None:
        entry = HistoryEntry(kind, len(self.entries), text, elidable)
        self.entries.append(entry)
        self.tokens += entry.tokens

    def append_plan(self, text: str) -> None:
        self._append("plan", text, elidable=False)

    def append_feedback(self, text: str) -> None:
        self._append("feedback", text)

    def append_observation(self, text: str) -> None:
        self._append("observation", text)

    def append_note(self, text: str) -> None:
        self._append("note", text)

    def last_feedback_text(self) -> str:
        for entry in reversed(self.entries):
            if entry.kind == "feedback":
                return entry.text
        return ""


def render_view(view: PlannerView) -> str:
    """Compact, deterministic serialization of the current belief."""
    belief = view.belief
    lines = []
    if belief.global_map is None:
        lines.append("global map: not built")
    else:
        items = ", ".join(f"{f.id}({f.category})" for f in belief.global_map.furniture)
        lines.append(f"global map: {items}")
    for rid in sorted(belief.local_maps):
        m = belief.local_maps[rid]
        stale = " STALE" if m.stale else ""
        contents = ", ".join(f"{o.id}({o.category})" for o in m.items) or "empty"
        lines.append(f"local {rid}{stale}: {contents}")
    known_attrs = [
        f"{b.id}: {sorted(b.attributes)}"
        for b in sorted(view.belief.objects.values(), key=lambda o: o.id)
        if b.inspected
    ]
    if known_attrs:
        lines.append("inspected: " + "; ".join(known_attrs))
    lines.append(f"holding: {belief.holding or 'nothing'}")
    lines.append(f"at: {belief.at_receptacle or 'unknown'}")
    if view.feasibility is not None:
        lines.append(f"feasibility: {view.feasibility.explanation}")
    return "\n".join(lines)


def assemble_prompt(
    template: PromptTemplate,
    history: DialogueHistory,
    view: PlannerView,
    token_budget: int = 8000,
) -> list[dict[str, str]]:
    """Deterministic message sequence for a chat completion request.

    Each history entry carries its own content and token estimate, so the
    cost of a call does not grow with the token count of the history."""
    system, system_tokens = template.system_message
    instruction = f"Instruction: {history.instruction}"
    messages: list[dict[str, str]] = [
        {"role": "system", "content": system},
        {"role": "user", "content": instruction},
    ]
    if not history.entries:
        # nothing has happened yet: exactly the system and instruction messages
        return messages
    messages.extend({"role": e.role, "content": e.content} for e in history.entries)
    tail = render_view(view)
    last_fb = history.last_feedback_text()
    if last_fb:
        tail += f"\nlast feedback: {last_fb}"
    tail += "\nNext step?"
    messages.append({"role": "user", "content": tail})

    total = system_tokens + estimate_tokens(instruction) + history.tokens + estimate_tokens(tail)
    if total > token_budget:
        for message, entry in zip(messages[2:], history.entries):  # oldest first
            if total <= token_budget:
                break
            if entry.elidable:
                head = entry.content.split(":", 1)[0]
                message["content"] = f"{head}: [elided]"
                total -= entry.tokens - estimate_tokens(message["content"])
    return messages
