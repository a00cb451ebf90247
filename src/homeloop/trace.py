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

from .errors import ConfigError, TraceFormatError, as_json, as_number
from .verification import FailureRecord

# @2 verdicts hold only the objects the verdict read; an @1 verdict holds
# the whole view, which replays to the same verdict through the same reader.
SCHEMA = "homeloop-trace@2"
READABLE_SCHEMAS = ("homeloop-trace@1", SCHEMA)

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_INVALID = "infrastructure-invalid"
OUTCOMES = (OUTCOME_SUCCESS, OUTCOME_FAILURE, OUTCOME_INVALID)

# The footer counters that are tallies of ``failure_records``.
RECORD_TALLIES = ("replanned_executions", "recovered_executions", "direct_failures")


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

    def counters(self) -> dict[str, int]:
        """The trace footer's ``counters``: the step counts, then the record tallies."""
        return {key: getattr(self, key) for key in ("execution_steps", "successful_steps", *RECORD_TALLIES)}

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


# The bytes of ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
# from one encoder, where each such call would build its own. A trace holds
# no cycles, so nothing needs the circular-reference check.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def trace_text(report: TrialReport) -> str:
    """The report's trace: one JSON document per line, each line ending in a
    newline."""
    header = {
        "schema": SCHEMA,
        "task": report.task_id,
        "trial": report.trial_index,
        "seed": report.seed,
    }
    footer = {
        "event": "trial_end",
        "outcome": report.outcome,
        "reason": report.reason,
        "goal_satisfied": report.goal_satisfied,
        "counters": report.counters(),
        "failure_records": [r.to_json() for r in report.failure_records],
    }
    encode = _ENCODER.encode
    return "\n".join([encode(header), *map(encode, report.events), encode(footer), ""])


def write_trace(report: TrialReport, sink) -> None:
    """Serialize to a text file object in one write."""
    sink.write(trace_text(report))


def write_trace_file(text: str, path: str) -> None:
    """Write a trace's text (``trace_text``) to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_trace(source) -> TrialReport:
    """Inverse of write_trace. A malformed or truncated stream raises
    TraceFormatError naming the last line that parsed."""
    lines = source.read().splitlines()
    parsed: list[dict[str, Any]] = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {i} is not valid JSON: {exc}", i - 1) from exc
        if not isinstance(doc, dict):
            raise TraceFormatError(f"line {i} is not a JSON object", i - 1)
        parsed.append(doc)
    if not parsed:
        raise TraceFormatError("empty trace", 0)
    header = parsed[0]
    if header.get("schema") not in READABLE_SCHEMAS:
        raise TraceFormatError(f"unknown schema {header.get('schema')!r}", 0)
    if len(parsed) < 2 or parsed[-1].get("event") != "trial_end":
        raise TraceFormatError("missing trial_end footer", len(parsed))
    footer = parsed[-1]
    try:
        counters = as_json(footer["counters"], dict, "counters")
        records = as_json(footer["failure_records"], list, "failure_records")
        report = TrialReport(
            task_id=as_json(header["task"], str, "task"),
            trial_index=as_number(header["trial"], "trial", int),
            seed=as_number(header["seed"], "seed", int),
            outcome=as_json(footer["outcome"], str, "outcome"),
            reason=as_json(footer["reason"], str, "reason"),
            goal_satisfied=as_json(footer["goal_satisfied"], bool, "goal_satisfied"),
            execution_steps=as_number(counters["execution_steps"], "counters.execution_steps", int),
            successful_steps=as_number(counters["successful_steps"], "counters.successful_steps", int),
            failure_records=[FailureRecord.from_json(doc) for doc in records],
            events=parsed[1:-1],
        )
        if report.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {report.outcome!r}")
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed header or trial_end footer: {exc!r}", len(parsed) - 1) from exc
    for key in RECORD_TALLIES:
        if counters.get(key) != getattr(report, key):
            raise TraceFormatError(f"counter {key} does not match failure records", len(parsed))
    return report


def load_trace_file(path: str) -> TrialReport:
    """``load_trace`` of a file, which must also keep the accounting
    identities (``TrialReport.check_identities``): a trace file whose footer
    breaks one raises TraceFormatError. ``load_trace`` alone lets a checker
    load such a trace and report what is wrong with it."""
    with open(path, "r", encoding="utf-8") as fh:
        report = load_trace(fh)
    try:
        report.check_identities()
    except ValueError as exc:
        footer = len(report.events) + 2  # after the header and the events
        raise TraceFormatError(f"trial_end footer breaks an accounting identity: {exc}", footer) from exc
    return report
