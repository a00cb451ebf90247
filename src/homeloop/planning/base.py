"""Planner-facing view of one loop iteration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from ..perception import Belief
from ..verification import FeasibilityVerdict
from .dsl import PlanStep


@dataclass
class PlannerView:
    """Everything a planner may look at when emitting the next step: the
    belief maps and the latest feasibility verdict. Planners never touch the
    world."""

    belief: Belief
    feasibility: Optional[FeasibilityVerdict] = None


class Planner(Protocol):
    def next_step(self, task, history, view: PlannerView) -> PlanStep:  # pragma: no cover - protocol
        ...
