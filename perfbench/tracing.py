"""Span tracing of homeloop's layers, done entirely from the outside.

``Tracer.install`` replaces public functions of each layer with wrappers that
record a span per call: name, start, end, the span that caused it (the span
open on the stack when the call began) and the trial it belongs to. Spans
stay in memory until ``write_spans``. Nothing under ``src/homeloop`` knows
about this module; ``uninstall`` puts every original function back.

Modules bind each other's functions with ``from .x import f``, so a function
is patched at every module attribute that the program looks it up through
(for instance ``capture`` in ``harness``, ``recovery`` and ``perception``).
Methods are patched once, on their class.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

# (layer, function) -> the (owner, attribute) bindings to wrap. Owners are
# given as dotted module paths, or "module:Class" for methods.
SPANS: dict[tuple[str, str], tuple[str, ...]] = {
    ("harness", "run_trial"): ("homeloop.harness.run_trial",),
    ("world", "init"): ("homeloop.world:World.__init__",),
    ("world", "apply_action"): ("homeloop.world:World.apply_action",),
    ("world", "select_approach"): ("homeloop.world:World.select_approach",),
    ("world", "state_digest"): ("homeloop.world:World.state_digest",),
    ("geometry", "flood_fill"): ("homeloop.geometry:OccupancyGrid.flood_fill",),
    ("geometry", "bfs_distances"): ("homeloop.geometry:OccupancyGrid.bfs_distances",),
    ("geometry", "adjacent_free_cells"): ("homeloop.geometry:OccupancyGrid.adjacent_free_cells",),
    ("perception", "explore_global"): ("homeloop.skills.explore_global",),
    ("perception", "explore_local"): ("homeloop.skills.explore_local", "homeloop.perception.explore_local"),
    ("perception", "report_observation"): ("homeloop.skills.report_observation",),
    ("perception", "capture"): (
        "homeloop.harness.capture",
        "homeloop.recovery.capture",
        "homeloop.perception.capture",
    ),
    ("skills", "dispatch"): ("homeloop.harness.dispatch", "homeloop.recovery.dispatch"),
    ("verification", "verify_success"): ("homeloop.harness.verify_success", "homeloop.recovery.verify_success"),
    ("verification", "verify_feasibility"): (
        "homeloop.harness.verify_feasibility",
        "homeloop.planning.scripted.verify_feasibility",
    ),
    ("recovery", "episode"): ("homeloop.recovery:EpisodeRunner.run",),
    ("planning", "next_step"): (
        "homeloop.planning.scripted:ScriptedPlanner.next_step",
        "perfbench.workloads:ScriptedChatPlanner.next_step",
    ),
    ("planning", "assemble_prompt"): ("homeloop.planning.adapter.assemble_prompt",),
    ("planning", "parse_plan"): ("homeloop.planning.adapter.parse_plan",),
    ("trace", "write_trace_file"): ("homeloop.harness.write_trace_file",),
    ("metrics", "compute_metrics"): ("homeloop.harness.compute_metrics",),
}

# Counts recorded at the same boundaries, in addition to calls.
COUNTS: dict[str, str] = {
    "skills.execution_steps": "count",
    "skills.successful_steps": "count",
    "recovery.episodes_recovered": "count",
    "planning.prompt_tokens": "tokens",
    "trace.bytes": "bytes",
}

SELF_TIME = "harness.run_trial.self_ms"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for layer, fn in SPANS:
        out.append((f"{layer}.{fn}.ms", "ms", "lower"))
        out.append((f"{layer}.{fn}.calls", "count", "lower"))
        if (layer, fn) == ("harness", "run_trial"):
            out.append((SELF_TIME, "ms", "lower"))
    better = {
        "skills.successful_steps": "higher",
        "recovery.episodes_recovered": "higher",
    }
    for name, unit in COUNTS.items():
        out.append((name, unit, better.get(name, "lower")))
    return out


def _resolve(binding: str) -> tuple[Any, str]:
    import importlib

    if ":" in binding:
        module, rest = binding.split(":")
        cls, attr = rest.split(".")
        return getattr(importlib.import_module(module), cls), attr
    module, attr = binding.rsplit(".", 1)
    return importlib.import_module(module), attr


class Tracer:
    """In-memory span recorder. One span is a tuple
    ``(name, start_ns, end_ns, parent_span_index, trial_id)``."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, int, int, Optional[int], Optional[int]]]] = []
        self.counts: Counter[str] = Counter()
        self.trial: Optional[int] = None
        self._trials = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        from homeloop.planning import estimate_tokens

        after: dict[str, Callable[[tuple, Any], None]] = {
            "harness.run_trial": self._after_trial,
            "recovery.episode": lambda args, ep: self._count("recovery.episodes_recovered", ep.status == "recovered"),
            "planning.assemble_prompt": lambda args, messages: self._count(
                "planning.prompt_tokens", sum(estimate_tokens(m["content"]) for m in messages)
            ),
            "trace.write_trace_file": lambda args, _: self._count("trace.bytes", os.path.getsize(args[1])),
        }
        for (layer, fn), bindings in SPANS.items():
            name = f"{layer}.{fn}"
            for binding in bindings:
                owner, attr = _resolve(binding)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, after.get(name)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable[[tuple, Any], None]]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        starts_trial = name == "harness.run_trial"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if starts_trial:
                self.trial = self._trials
                self._trials += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.trial)
                if starts_trial:
                    self.trial = None
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def _after_trial(self, args: tuple, report: Any) -> None:
        self._count("skills.execution_steps", report.execution_steps)
        self._count("skills.successful_steps", report.successful_steps)

    # -- results -------------------------------------------------------------------

    def metrics(self, scale: Callable[[int], float] = lambda start_ns: 1.0) -> dict[str, float]:
        """Per-layer totals. ``scale(start_ns)`` multiplies the duration of
        a span that started then (see ``pace.py``)."""
        busy: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        child_ns: dict[int, int] = defaultdict(int)
        self_ms = 0.0
        for span in self.spans:
            if span is None:
                raise RuntimeError("a span is still open")
            _, start, end, parent, _ = span
            if parent is not None:
                child_ns[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            factor = scale(start) / 1e6
            busy[name] += (end - start) * factor
            calls[name] += 1
            if name == "harness.run_trial":
                self_ms += (end - start - child_ns[i]) * factor
        out: dict[str, float] = {}
        for layer, fn in SPANS:
            name = f"{layer}.{fn}"
            out[f"{name}.ms"] = busy[name]
            out[f"{name}.calls"] = calls[name]
            if name == "harness.run_trial":
                out[SELF_TIME] = self_ms
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: index, name, start_ns, end_ns, parent, trial."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span], separators=(",", ":")) + "\n")
