"""The constrained plan DSL.

Plans are line-oriented: one ``verb(argument)`` call per line, with ``done()``
or ``done("message")`` ending a task. Arguments are map-reference tokens
(``cup_1``), quoted strings (only where a mode string is legal), or a
receptacle-relative location ``receptacle:dx,dy`` for place.

The parser applies static checks before anything executes: unknown verbs,
wrong arities and string literals where an object reference is required are
rejected with a line number and a remediation hint that is rendered back into
the planner dialogue.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from ..world import ActionRequest, ALL_VERBS


@dataclass(frozen=True)
class Ref:
    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class Str:
    text: str

    def render(self) -> str:
        return '"' + self.text.replace('"', '\\"') + '"'


@dataclass(frozen=True)
class Loc:
    receptacle: str
    offset: tuple[float, float]

    def render(self) -> str:
        return f"{self.receptacle}:{self.offset[0]!r},{self.offset[1]!r}"


PlanArg = Union[Ref, Str, Loc]


@dataclass(frozen=True)
class Call:
    verb: str
    arg: Optional[PlanArg] = None
    warning: Optional[str] = field(default=None, compare=False)

    def render(self) -> str:
        return f"{self.verb}({self.arg.render() if self.arg is not None else ''})"


@dataclass(frozen=True)
class Done:
    message: str = ""

    def render(self) -> str:
        return f'done("{self.message}")' if self.message else "done()"


PlanStep = Union[Call, Done]


class ParseError(Exception):
    def __init__(self, line_number: int, message: str, hint: str = "") -> None:
        self.line_number = line_number
        self.message = message
        self.hint = hint
        super().__init__(f"line {line_number}: {message}")

    def render(self) -> str:
        text = f"plan rejected at line {self.line_number}: {self.message}"
        if self.hint:
            text += f" Hint: {self.hint}"
        return text


_CALL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*$")
_REF_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_STR_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')
_LOC_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(-?\d+(?:\.\d+)?(?:e-?\d+)?)\s*,\s*(-?\d+(?:\.\d+)?(?:e-?\d+)?)$")
_FENCE_RE = re.compile(r"```[a-zA-Z0-9]*\n(.*?)```", re.DOTALL)

MODES = ("stay", "rest")


def extract_code(text: str) -> str:
    """First fenced code block, or the whole text when none is fenced."""
    m = _FENCE_RE.search(text)
    return m.group(1) if m else text


def _parse_arg(raw: str, line_no: int) -> Optional[PlanArg]:
    if raw == "":
        return None
    m = _STR_RE.match(raw)
    if m:
        return Str(m.group(1).replace('\\"', '"'))
    m = _LOC_RE.match(raw)
    if m:
        return Loc(m.group(1), (float(m.group(2)), float(m.group(3))))
    if _REF_RE.match(raw):
        return Ref(raw)
    raise ParseError(
        line_no,
        f"cannot parse argument {raw!r}",
        "arguments are bare reference tokens, quoted strings, or receptacle:dx,dy locations",
    )


def parse_plan(text: str, gripper_occupied: bool = False) -> list[PlanStep]:
    """Parse plan text into steps, applying static checks.

    ``gripper_occupied`` suppresses the place-without-grasp warning when a
    prior successful grasp is already in the dialogue history.
    """
    steps: list[PlanStep] = []
    grasp_seen = gripper_occupied
    for line_no, raw_line in enumerate(extract_code(text).splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        m = _CALL_RE.match(line)
        if m is None:
            raise ParseError(
                line_no,
                f"expected verb(argument), got {line!r}",
                "emit exactly one call per line",
            )
        verb, arg_raw = m.group(1), m.group(2)
        if verb == "done":
            arg = _parse_arg(arg_raw, line_no)
            if arg is None:
                steps.append(Done(""))
            elif isinstance(arg, Str):
                steps.append(Done(arg.text))
            else:
                raise ParseError(line_no, "done() takes no argument or a quoted message", "")
            continue
        if verb not in ALL_VERBS:
            raise ParseError(
                line_no,
                f"unknown verb {verb!r}",
                f"available verbs: {', '.join(ALL_VERBS)}, done",
            )
        arg = _parse_arg(arg_raw, line_no)
        step = _check_call(verb, arg, line_no)
        if verb == "grasp":
            grasp_seen = True
        if verb == "place" and not grasp_seen:
            step = Call(step.verb, step.arg, warning="no prior grasp in plan or history; place may fault")
        steps.append(step)
    if not steps:
        raise ParseError(1, "plan is empty", "emit at least one call or done()")
    return steps


def _check_call(verb: str, arg: Optional[PlanArg], line_no: int) -> Call:
    """One rule per argument kind: explore_global takes no argument and every
    other verb takes one; a string literal is allowed only as an observation
    mode, and a location only for place. ``parse_plan`` has already refused
    any verb outside ``ALL_VERBS``."""
    if verb == "explore_global" and arg is not None:
        raise ParseError(line_no, "explore_global takes no argument", "")
    if verb != "explore_global" and arg is None:
        raise ParseError(line_no, f"{verb} requires an argument", "")
    if isinstance(arg, Str) and not (verb == "report_observation" and arg.text in MODES):
        if verb == "report_observation":
            raise ParseError(line_no, f"unknown observation mode {arg.text!r}", 'modes are "stay" and "rest"')
        hint = (
            "pass a receptacle reference or receptacle:dx,dy location"
            if verb == "place"
            else f"pass the map reference token itself, e.g. {verb}(table_0)"
        )
        raise ParseError(line_no, f"expected object reference, got string literal {arg.text!r}", hint)
    if isinstance(arg, Loc) and verb != "place":
        raise ParseError(line_no, f"{verb} does not take a location", "")
    return Call(verb, arg)


def to_request(step: Call) -> ActionRequest:
    """Lower a parsed call to an executable request."""
    arg = step.arg
    if arg is None:
        return ActionRequest(verb=step.verb)
    if isinstance(arg, Ref):
        return ActionRequest(verb=step.verb, target=arg.name)
    if isinstance(arg, Str):
        return ActionRequest(verb=step.verb, target=arg.text, string_literal=True)
    return ActionRequest(verb=step.verb, location=(arg.receptacle, arg.offset))
