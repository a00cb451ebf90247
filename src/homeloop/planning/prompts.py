"""Prompt assembly and dialogue history.

The system prompt has five fixed sections; the dialogue alternates the user's
instruction, the planner's emitted plans, and rendered feedback/observations.
Assembly is deterministic, and an approximate token budget elides the oldest
feedback and observation bodies first — section headers and the instruction
are never elided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..world import ALL_VERBS
from .base import PlannerView


def estimate_tokens(text: str) -> int:
    """Crude but deterministic: one token per four characters."""
    return max(1, (len(text) + 3) // 4)


_SKILLS = """\
navigate(furniture_ref)        -- drive to a furniture item from the global map
grasp(object_ref)              -- pick up an object from a local map
place(receptacle_ref)          -- put the held object onto a receptacle
place(receptacle_ref:dx,dy)    -- put it at a receptacle-relative offset in meters
explore_global()               -- frontier-sweep the room, build the global furniture map
explore_local(furniture_ref)   -- scan small objects on one furniture item
report_observation(object_ref) -- close-up inspection: true category and attributes
report_observation("stay")     -- wide capture from the current pose
report_observation("rest")     -- wide capture from the rest pose
done("message")                -- declare the task finished"""

# The five sections of the system prompt, in order: header, body.
_SECTIONS = {
    "Task Description": (
        "You control a single-arm mobile robot in a household room. "
        "Follow the user's instruction by emitting one short plan at a time "
        "in the call language below. You see the world only through the maps "
        "and observations echoed back to you."
    ),
    "Feedback Handling": (
        "After every executed call you receive a feedback line: ok or FAILED "
        "plus a message. A FAILED line names the fault; fix the plan rather "
        "than repeating the same call blindly. Typical faults: grasp failed, "
        "place without prior grasping, target out of reach, navigation failed, "
        "target not visible."
    ),
    "Robot Setup and Skills Library": (
        "The gripper holds at most one object. Reference tokens come from the "
        "maps (never invent ids, never pass a name in quotes where a reference "
        "is required). Available calls:\n" + _SKILLS
    ),
    "Response Guidelines": (
        "Reply with a fenced code block containing one call per line. "
        "Emit at most three calls per reply; the loop re-consults you after "
        f"each execution. Verbs: {', '.join(ALL_VERBS)}, done."
    ),
    "Useful Tips": (
        "Explore globally before navigating. Scan a table before grasping "
        "from it. Use close-ups to check attributes before committing to an "
        "object. If a needed object is missing here, try another receptacle."
    ),
}
SYSTEM_PROMPT = "\n\n".join(f"# {name}\n{body}" for name, body in _SECTIONS.items())
SYSTEM_TOKENS = estimate_tokens(SYSTEM_PROMPT)
TOKEN_BUDGET = 8000


_PREFIX = {"plan": "", "feedback": "feedback: ", "observation": "observation: ", "note": "note: "}


class Message(dict):
    """A chat message, ``{"role": ..., "content": ...}``, that refuses every
    change: history hands the same one to each prompt it appears in. A copy
    (``copy``, ``pickle`` or ``dict(m)``) is a plain dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a history message is read-only; change a copy")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


@dataclass(frozen=True)
class HistoryEntry:
    """One dialogue message. Its chat message and its token estimate are
    made once, when the entry is."""

    kind: str  # "plan" | "feedback" | "observation" | "note"
    text: str
    elidable: bool = True
    message: Message = field(init=False, repr=False, compare=False)
    tokens: int = field(init=False)

    def __post_init__(self) -> None:
        role = "assistant" if self.kind == "plan" else "user"
        content = _PREFIX[self.kind] + self.text
        object.__setattr__(self, "message", Message(role=role, content=content))
        object.__setattr__(self, "tokens", estimate_tokens(content))

    @property
    def role(self) -> str:
        return self.message["role"]

    @property
    def content(self) -> str:
        return self.message["content"]


@dataclass
class DialogueHistory:
    """Ordered record of one trial's planner dialogue. ``messages`` holds
    each entry's message in order, and ``tokens`` is the running token
    estimate of all the entries."""

    instruction: str
    entries: list[HistoryEntry] = field(default_factory=list)
    messages: list[Message] = field(init=False, repr=False)
    tokens: int = field(init=False)

    def __post_init__(self) -> None:
        self.messages = [e.message for e in self.entries]
        self.tokens = sum(e.tokens for e in self.entries)

    def _append(self, kind: str, text: str, elidable: bool = True) -> None:
        entry = HistoryEntry(kind, text, elidable)
        self.entries.append(entry)
        self.messages.append(entry.message)
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
        for b in belief.sorted_objects()
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
    history: DialogueHistory,
    view: PlannerView,
    token_budget: int = TOKEN_BUDGET,
) -> list[dict[str, str]]:
    """Deterministic message sequence for a chat completion request.

    The history's messages are its own, read-only ``Message`` objects, so
    the cost of a call does not grow with the history. Elision replaces the
    messages it shortens with new ones and never changes the history's."""
    instruction = f"Instruction: {history.instruction}"
    messages: list[dict[str, str]] = [
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": instruction},
    ]
    if not history.entries:
        # nothing has happened yet: exactly the system and instruction messages
        return messages
    messages.extend(history.messages)
    tail = render_view(view)
    last_fb = history.last_feedback_text()
    if last_fb:
        tail += f"\nlast feedback: {last_fb}"
    tail += "\nNext step?"
    messages.append({"role": "user", "content": tail})

    total = SYSTEM_TOKENS + estimate_tokens(instruction) + history.tokens + estimate_tokens(tail)
    if total > token_budget:
        for i, entry in enumerate(history.entries, start=2):  # oldest first
            if total <= token_budget:
                break
            if entry.elidable:
                content = entry.content.split(":", 1)[0] + ": [elided]"
                messages[i] = {"role": entry.role, "content": content}
                total -= entry.tokens - estimate_tokens(content)
    return messages
