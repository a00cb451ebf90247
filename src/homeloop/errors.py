"""Exceptions and typed faults shared across the simulator.

Exceptions signal misuse or broken infrastructure and abort the caller.
Faults are *data*: they ride inside action feedback so the planner can read
them, and they never unwind the trial loop. A layer that refuses a request
raises ``Refused`` with the fault; ``skills.dispatch`` and
``World.apply_action`` turn it back into data, a failed result.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(Exception):
    """Raised when a scene or suite config violates an invariant.

    ``field_path`` names the offending field, e.g. ``furniture[1].footprint``.
    """

    def __init__(self, field_path: str, message: str) -> None:
        self.field_path = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


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


# Every fault class by its ``kind`` (class name), for rebuilding faults from a
# trace. A new Fault subclass must be listed here to replay as itself.
FAULT_TYPES: dict[str, type[Fault]] = {
    cls.__name__: cls for cls in (Fault, PreconditionFault, NotAtReceptacle, TargetNotVisible, ApiCallError)
}


# Fault codes that indicate a planner mistake (wrong or missing call) rather
# than a physical failure. They map to the api_call_error failure cause.
PLAN_LEVEL_CODES = frozenset(
    {
        "unknown_verb",
        "unknown_reference",
        "bad_argument",
        "place_without_grasp",
        "gripper_full",
        "not_at_receptacle",
        "target_not_in_local_map",
        "no_free_space",
    }
)
