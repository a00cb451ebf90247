"""Trial reports and JSON-lines trace files.

One trial writes one trace file: a schema-versioned header line, one event
per line, and a footer with the outcome and counters. Loading is the exact
inverse of writing, and the byte content is deterministic for a given seed —
wall-clock time never enters a trace (run metadata lives in a sidecar file).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .errors import TraceFormatError
from .perception import Observation, SceneObject
from .verification import FailureRecord

SCHEMA = "homeloop-trace@1"

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_INVALID = "infrastructure-invalid"


@dataclass
class TrialReport:
    """Everything observable about one trial: the ordered event trace plus
    the counters the metrics aggregate."""

    task_id: str
    trial_index: int
    seed: int
    outcome: str
    reason: str
    goal_satisfied: bool
    execution_steps: int
    successful_steps: int
    failure_records: list[FailureRecord] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def replanned_executions(self) -> int:
        return sum(1 for r in self.failure_records if r.replanned)

    @property
    def recovered_executions(self) -> int:
        return sum(1 for r in self.failure_records if r.recovered)

    @property
    def direct_failures(self) -> int:
        return sum(1 for r in self.failure_records if r.direct_failure)

    def check_identities(self) -> None:
        """Accounting invariants every trace must satisfy. Explicit raises,
        so that ``python -O`` keeps them."""
        if self.successful_steps > self.execution_steps:
            raise ValueError(f"{self.successful_steps} successful steps > {self.execution_steps} executed")
        if self.recovered_executions > self.replanned_executions:
            raise ValueError(f"{self.recovered_executions} recovered > {self.replanned_executions} replanned")
        total = len(self.failure_records)
        if total != self.replanned_executions + self.direct_failures:
            raise ValueError(
                f"{total} failures != {self.replanned_executions} replanned "
                f"+ {self.direct_failures} direct"
            )
        if self.outcome != OUTCOME_INVALID and (self.outcome == OUTCOME_SUCCESS) != self.goal_satisfied:
            raise ValueError(f"outcome {self.outcome!r} disagrees with goal_satisfied={self.goal_satisfied}")


def _dump(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_trace(report: TrialReport, sink) -> None:
    """Serialize to a text file object, one JSON document per line."""
    header = {
        "schema": SCHEMA,
        "task": report.task_id,
        "trial": report.trial_index,
        "seed": report.seed,
    }
    sink.write(_dump(header) + "\n")
    for event in report.events:
        sink.write(_dump(event) + "\n")
    footer = {
        "event": "trial_end",
        "outcome": report.outcome,
        "reason": report.reason,
        "goal_satisfied": report.goal_satisfied,
        "counters": {
            "execution_steps": report.execution_steps,
            "successful_steps": report.successful_steps,
            "replanned_executions": report.replanned_executions,
            "recovered_executions": report.recovered_executions,
            "direct_failures": report.direct_failures,
        },
        "failure_records": [r.to_json() for r in report.failure_records],
    }
    sink.write(_dump(footer) + "\n")


def write_trace_file(report: TrialReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_trace(report, fh)


def load_trace(source) -> TrialReport:
    """Inverse of write_trace. A malformed or truncated stream raises
    TraceFormatError naming the last line that parsed."""
    lines = source.read().splitlines()
    if not lines:
        raise TraceFormatError("empty trace", 0)
    parsed: list[dict[str, Any]] = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {i} is not valid JSON: {exc}", i - 1) from exc
    header = parsed[0]
    if header.get("schema") != SCHEMA:
        raise TraceFormatError(f"unknown schema {header.get('schema')!r}", 0)
    if len(parsed) < 2 or parsed[-1].get("event") != "trial_end":
        raise TraceFormatError("missing trial_end footer", len(parsed))
    footer = parsed[-1]
    counters = footer["counters"]
    report = TrialReport(
        task_id=header["task"],
        trial_index=header["trial"],
        seed=header["seed"],
        outcome=footer["outcome"],
        reason=footer["reason"],
        goal_satisfied=footer["goal_satisfied"],
        execution_steps=counters["execution_steps"],
        successful_steps=counters["successful_steps"],
        failure_records=[FailureRecord.from_json(doc) for doc in footer["failure_records"]],
        events=parsed[1:-1],
    )
    expected = {
        "replanned_executions": report.replanned_executions,
        "recovered_executions": report.recovered_executions,
        "direct_failures": report.direct_failures,
    }
    for key, value in expected.items():
        if counters.get(key) != value:
            raise TraceFormatError(f"counter {key} does not match failure records", len(parsed))
    return report


def load_trace_file(path: str) -> TrialReport:
    with open(path, "r", encoding="utf-8") as fh:
        return load_trace(fh)


# --- observation reconstruction (for replay) ---------------------------------------


def scene_object_from_json(doc: dict[str, Any]) -> SceneObject:
    pose = tuple(doc.get("pose", (0.0, 0.0)))
    return SceneObject(
        id=doc["id"],
        category=doc["category"],
        attributes=frozenset(doc.get("attributes", [])),
        location=(float(pose[0]), float(pose[1])),
        footprint=(),
        description="",
        provenance=doc.get("provenance", "object"),
        last_seen_step=int(doc.get("step", 0)),
        parent_id=doc.get("parent"),
        is_receptacle=bool(doc.get("receptacle", False)),
    )


def observation_from_json(doc: dict[str, Any]) -> Observation:
    return Observation(
        kind=doc["kind"],
        target=doc.get("target"),
        visible=tuple(scene_object_from_json(o) for o in doc.get("visible", [])),
        captured_at_step=int(doc.get("step", 0)),
    )
