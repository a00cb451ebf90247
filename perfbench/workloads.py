"""The three workloads: what each runs, and how its inputs reach the program.

A workload runs in *units*. A unit is a list of suites, each run by one
``run_suite`` call with an output directory, as ``homeloop run`` does. Every
unit of a workload has the same make-up of trial kinds:

- ``bundled``: ``builtin:acceptance`` (zero noise) then ``builtin:benchmark``
  (default noise), 100 trials, at base seed ``seed * 1000 + unit``.
- ``apartments``: one suite of ten generated two-room layouts, one trial each.
- ``long_horizon``: one suite of ten generated tabletop scenes, one trial
  each, driven by a ``ChatModelPlanner`` whose backend answers every
  completion with the scripted policy's next step.

``docs`` is the benchmark's own input generation; ``load`` is the program's
work of parsing and validating those documents, which ``setup_s`` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from homeloop.goals import parse_goal
from homeloop.harness import SuiteConfig, TaskSpec, load_builtin_suite, make_planner_factory
from homeloop.planning import ChatModelPlanner, scripted_next_step
from homeloop.world import parse_config, validate_config

from perfbench import generators

UNIT_TASKS = 10  # generated tasks per unit


class ScriptedChatBackend:
    """In-process chat backend: answers each completion with the scripted
    policy's next step, rendered in the plan DSL inside a fenced block."""

    def __init__(self) -> None:
        self.context: Optional[tuple[Any, Any, Any]] = None

    def complete(self, messages: list[dict[str, str]]) -> str:
        if self.context is None:
            raise RuntimeError("ScriptedChatBackend.complete called outside next_step")
        task, history, view = self.context
        return "```\n" + scripted_next_step(task, history, view).render() + "\n```"


class ScriptedChatPlanner(ChatModelPlanner):
    """The chat adapter driven by ``ScriptedChatBackend``. Prompt assembly,
    parsing and step validation are the adapter's own; only the reply is
    scripted."""

    def __init__(self) -> None:
        super().__init__(ScriptedChatBackend())

    def next_step(self, task, history, view):
        self.backend.context = (task, history, view)
        try:
            return super().next_step(task, history, view)
        finally:
            self.backend.context = None


@dataclass(frozen=True)
class Workload:
    name: str
    planner: str  # "scripted" | "chat"
    generator: Optional[Callable[[int, int, int], tuple[dict, dict]]]

    def planner_factory(self) -> Callable[[], Any]:
        return ScriptedChatPlanner if self.planner == "chat" else make_planner_factory("scripted")

    def docs(self, seed: int, unit: int) -> list[dict[str, Any]]:
        """Generated task documents of one unit (empty for bundled)."""
        if self.generator is None:
            return []
        out = []
        for i in range(UNIT_TASKS):
            scene, task = self.generator(seed, unit, i)
            out.append({"id": f"u{unit}_{i}", "seed": (seed * 1009 + unit) * 100 + i, "scene": scene, **task})
        return out

    def load(self, docs: list[dict[str, Any]], seed: int, unit: int) -> list[tuple[SuiteConfig, int]]:
        """Parse and validate one unit's inputs into (suite, base seed) pairs."""
        if self.generator is None:
            base = seed * 1000 + unit
            return [(load_builtin_suite("acceptance"), base), (load_builtin_suite("benchmark"), base)]
        tasks = []
        for doc in docs:
            scene = parse_config(doc["scene"])
            validate_config(scene)
            tasks.append(
                TaskSpec(
                    id=doc["id"],
                    name=doc["scene"]["name"],
                    instruction=doc["instruction"],
                    scene=scene,
                    goal=parse_goal(doc["goal"]),
                    trial_count=1,
                    seeds=[doc["seed"]],
                    step_cap=doc["step_cap"],
                )
            )
        suite = SuiteConfig(name=f"{self.name}-{unit}", tasks=tasks, noise_profile="default", planner="scripted")
        return [(suite, 0)]


WORKLOADS = {
    "bundled": Workload("bundled", "scripted", None),
    "apartments": Workload("apartments", "scripted", generators.apartment),
    "long_horizon": Workload("long_horizon", "chat", generators.tabletop),
}
