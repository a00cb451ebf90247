"""Exceptions, typed faults and checked document readers shared across the
simulator.

Exceptions signal misuse or broken infrastructure and abort the caller.
Faults are *data*: they ride inside action feedback so the planner can read
them, and they never unwind the trial loop. A layer that refuses a request
raises ``Refused`` with the fault (``World.apply_action`` too); only
``skills.dispatch`` turns it back into data, a failed ``Feedback``.

A fault's ``code`` alone decides what kind of failure it is
(``verification.PHYSICAL_FAULT_CODES``); its class names it in feedback lines
and traces (``kind``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any


class ConfigError(Exception):
    """Raised when a document read from outside the program (a scene, a
    suite, a goal or a trace's header and footer) violates an invariant.

    ``field_path`` names the offending field, e.g. ``furniture[1].footprint``.
    """

    def __init__(self, field_path: str, message: str) -> None:
        self.field_path = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


# Checked readers for documents read from outside the program: each returns
# the value in the shape the parser needs or raises ConfigError at ``path``.


def require(raw: dict, key: str, path: str) -> Any:
    """``raw[key]``, or a ConfigError at ``path.key`` when it is missing."""
    if key not in raw:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return raw[key]


def field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names in declaration order: its document's keys."""
    return tuple(f.name for f in fields(cls))


def fields_json(record: Any) -> dict[str, Any]:
    """A dataclass record as the JSON object of its fields: a copy of its
    instance dict, which for a dataclass without slots holds exactly its
    fields, in declaration order."""
    return dict(vars(record))


def only_keys(raw: dict, known: tuple[str, ...], path: str = "") -> dict:
    """``raw``, or a ConfigError at ``path.key`` (a document's own keys are
    named bare) for its first key outside ``known``."""
    for key in raw:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, f"unknown field; known: {', '.join(known)}")
    return raw


def as_json(value: Any, kind: type, path: str) -> Any:
    """``value`` if it is a JSON object, array, string or boolean (``kind``
    dict, list, str or bool)."""
    if not isinstance(value, kind):
        name = {dict: "object", list: "array", str: "string", bool: "boolean"}[kind]
        raise ConfigError(path, f"expected a JSON {name}, got {value!r}")
    return value


def as_strings(value: Any, path: str) -> list[str]:
    """``value`` if it is a JSON array of strings."""
    return [as_json(item, str, f"{path}[{i}]") for i, item in enumerate(as_json(value, list, path))]


def as_number(value: Any, path: str, kind: type = float) -> Any:
    """``value`` as a finite ``kind`` if it is a JSON number, never a bool or
    a string; as an int, one with no fraction, so that nothing is truncated."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is int:
            if isinstance(value, int) or value.is_integer():
                return int(value)
        else:
            try:
                if math.isfinite(value):
                    return float(value)
            except OverflowError:  # an int beyond the largest float
                pass
    raise ConfigError(path, f"expected {'an integer' if kind is int else 'a finite number'}, got {value!r}")


def as_pair(value: Any, path: str, kind: type = float) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(path, f"expected [a, b], got {value!r}")
    return as_number(value[0], f"{path}[0]", kind), as_number(value[1], f"{path}[1]", kind)


class ExplorationStalled(Exception):
    """Frontier exploration cannot reach a frontier although reachable
    unexplored cells remain; indicates a grid/connectivity bug."""


class PolicyStuck(Exception):
    """The scripted policy found no applicable rule; a harness bug, never a
    task failure."""


class TransportError(Exception):
    """The chat-model endpoint could not be reached or returned garbage."""


class BudgetExceeded(Exception):
    """Repair round-trips with the chat model exceeded the configured cap."""


class TraceFormatError(Exception):
    """A trace file is malformed; carries the last line that parsed."""

    def __init__(self, message: str, last_valid_line: int) -> None:
        self.last_valid_line = last_valid_line
        super().__init__(f"{message} (last valid line: {last_valid_line})")


# --- Typed faults -----------------------------------------------------------
#
# Fault codes are frozen strings: they appear verbatim in planner feedback and
# in the plan DSL documentation.


@dataclass(frozen=True)
class Fault:
    """Base class for typed faults returned inside Feedback."""

    code: str
    message: str

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class PreconditionFault(Fault):
    """An action's precondition does not hold; returned, never sampled."""


@dataclass(frozen=True)
class NotAtReceptacle(Fault):
    """A local scan was requested away from the receptacle."""


@dataclass(frozen=True)
class TargetNotVisible(Fault):
    """The referenced object does not exist at its believed location."""


@dataclass(frozen=True)
class ApiCallError(Fault):
    """The request itself is malformed: unknown verb, bad reference, wrong
    argument type."""


class Refused(Exception):
    """A request turned down before it moved anything: the typed fault and
    the feedback line, which defaults to the fault's message."""

    def __init__(self, fault: Fault, message: str = "") -> None:
        self.fault = fault
        self.message = message or fault.message
        super().__init__(self.message)
