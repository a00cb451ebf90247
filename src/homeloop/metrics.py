"""Metric aggregation and table rendering.

Three ratios, each kept as an exact integer fraction pair:

    SR  — trials that reached the goal / valid trials
    SSR — successful execution steps / all execution steps
    RR  — recovered replanned executions / all replanned executions

The failure table breaks failure events down by cause, with a direct-failure
column (failures that ended the task with no recovery re-issue), the recovery
rate over replanned executions, and the overall recovered/total ratio. A 0/0
ratio renders as "–".

Infrastructure-invalid trials (planner endpoint unreachable) are excluded
from every ratio and reported as a count note.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .trace import OUTCOME_INVALID, OUTCOME_SUCCESS, TrialReport
from .verification import CAUSE_GROUP, CAUSES

EMPTY_RATIO = "–"  # en dash for 0/0


@dataclass(frozen=True)
class Ratio:
    num: int
    den: int

    def render(self) -> str:
        if self.num == 0 and self.den == 0:
            return EMPTY_RATIO
        return f"{self.num}/{self.den}"

    def __add__(self, other: "Ratio") -> "Ratio":
        return Ratio(self.num + other.num, self.den + other.den)


@dataclass(frozen=True)
class TaskRow:
    task_id: str
    sr: Ratio
    ssr: Ratio
    rr: Ratio


@dataclass(frozen=True)
class FailureRow:
    cause: str
    direct: int
    recovered: int
    replanned: int
    total: int

    @property
    def recovery_rate(self) -> Ratio:
        return Ratio(self.recovered, self.replanned)

    @property
    def overall(self) -> Ratio:
        return Ratio(self.recovered, self.total)


@dataclass
class MetricsTable:
    task_rows: list[TaskRow]
    total_row: TaskRow
    failure_rows: list[FailureRow]
    failure_total: FailureRow
    invalid_trials: int = 0

    def render_text(self) -> str:
        lines = []
        header = f"{'Task':<24}{'SR':>9}{'SSR':>11}{'RR':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.task_rows + [self.total_row]:
            lines.append(
                f"{row.task_id:<24}{row.sr.render():>9}{row.ssr.render():>11}{row.rr.render():>9}"
            )
        lines.append("")
        fheader = f"{'Failure cause':<24}{'DF':>5}{'R-RR':>9}{'Total':>9}"
        lines.append(fheader)
        lines.append("-" * len(fheader))
        for row in self.failure_rows + [self.failure_total]:
            label = row.cause.replace("_", " ")
            lines.append(
                f"{label:<24}{row.direct:>5}{row.recovery_rate.render():>9}{row.overall.render():>9}"
            )
        if self.invalid_trials:
            lines.append("")
            lines.append(f"note: {self.invalid_trials} infrastructure-invalid trial(s) excluded")
        return "\n".join(lines)

    def to_json(self) -> dict:
        def row_doc(row: TaskRow) -> dict:
            return {
                "task": row.task_id,
                "sr": [row.sr.num, row.sr.den],
                "ssr": [row.ssr.num, row.ssr.den],
                "rr": [row.rr.num, row.rr.den],
            }

        def failure_doc(row: FailureRow) -> dict:
            return {
                "cause": row.cause,
                "group": CAUSE_GROUP.get(row.cause, "total"),
                "direct_failures": row.direct,
                "recovered": row.recovered,
                "replanned": row.replanned,
                "total": row.total,
            }

        return {
            "tasks": [row_doc(r) for r in self.task_rows],
            "total": row_doc(self.total_row),
            "failures": [failure_doc(r) for r in self.failure_rows],
            "failure_total": failure_doc(self.failure_total),
            "invalid_trials": self.invalid_trials,
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def compute_metrics(reports: Iterable[TrialReport]) -> MetricsTable:
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    invalid = [r for r in reports if r.outcome == OUTCOME_INVALID]
    valid = [r for r in reports if r.outcome != OUTCOME_INVALID]

    by_task: dict[str, list[TrialReport]] = {}
    order: list[str] = []
    for r in valid:
        if r.task_id not in by_task:
            order.append(r.task_id)
        by_task.setdefault(r.task_id, []).append(r)

    task_rows = []
    for task_id in order:
        group = by_task[task_id]
        task_rows.append(
            TaskRow(
                task_id=task_id,
                sr=Ratio(sum(1 for g in group if g.outcome == OUTCOME_SUCCESS), len(group)),
                ssr=Ratio(sum(g.successful_steps for g in group), sum(g.execution_steps for g in group)),
                rr=Ratio(
                    sum(g.recovered_executions for g in group),
                    sum(g.replanned_executions for g in group),
                ),
            )
        )
    total_row = TaskRow(
        task_id="total",
        sr=sum((r.sr for r in task_rows), Ratio(0, 0)),
        ssr=sum((r.ssr for r in task_rows), Ratio(0, 0)),
        rr=sum((r.rr for r in task_rows), Ratio(0, 0)),
    )

    failure_rows = []
    for cause in CAUSES:
        records = [rec for r in valid for rec in r.failure_records if rec.cause == cause]
        failure_rows.append(
            FailureRow(
                cause=cause,
                direct=sum(1 for rec in records if rec.direct_failure),
                recovered=sum(1 for rec in records if rec.recovered),
                replanned=sum(1 for rec in records if rec.replanned),
                total=len(records),
            )
        )
    failure_total = FailureRow(
        cause="total",
        direct=sum(r.direct for r in failure_rows),
        recovered=sum(r.recovered for r in failure_rows),
        replanned=sum(r.replanned for r in failure_rows),
        total=sum(r.total for r in failure_rows),
    )
    return MetricsTable(
        task_rows=task_rows,
        total_row=total_row,
        failure_rows=failure_rows,
        failure_total=failure_total,
        invalid_trials=len(invalid),
    )
