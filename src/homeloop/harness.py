"""Trial runner and suite harness.

The closed loop per trial: ask the planner for the next step given the full
dialogue history and belief; execute it through the skills boundary; verify
success from before/after observations plus the feedback flag; on failure,
classify the cause and either run the hierarchical recovery machinery or hand
the diagnostic back to the planner. The loop ends on done(), a cap, a
rejected plan, a transport failure or an unrecovered failure; the outcome is
then read once from ground truth.

Accounting model: every failed execution event produces one failure record.
A record is *replanned* when a recovery re-issue (or a plan-level correction)
followed it, and *recovered* when that re-issue succeeded; a record with no
re-issue is a *direct failure*. Failure-cause labels that need ground truth
(was that a missed detection?) are assigned by the harness, which — unlike
the planner — is allowed to peek at the world, exactly like an experimenter
annotating trial videos.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .config import SuiteConfig, TaskSpec, resolve_noise_profile, vary_config
from .config import load_builtin_suite  # noqa: F401  (perfbench reads it here)
from .errors import BudgetExceeded, ConfigError, Fault, TraceFormatError, TransportError
from .goals import goal_satisfied, ground_view
from .perception import Belief, Observation
from .planning import (
    Call,
    ChatModelPlanner,
    DialogueHistory,
    Done,
    HttpChatBackend,
    ParseError,
    Planner,
    PlannerView,
    ScriptedPlanner,
    to_request,
)
from .planning.adapter import DEFAULT_MODEL, DEFAULT_TIMEOUT_S
from .recovery import execute, recover
# unused here, but perfbench/tracing.SPANS wraps capture and dispatch at these names
from .recovery import capture, dispatch  # noqa: F401
from .skills import SkillContext
from .trace import (
    OUTCOME_FAILURE,
    OUTCOME_INVALID,
    OUTCOME_SUCCESS,
    TrialReport,
    trace_text,
    write_trace_file,
)
from .metrics import MetricsTable, compute_metrics
from .verification import (
    PHYSICAL_FAULT_CODES,
    FailureRecord,
    SuccessVerdict,
    atom_object_selector,
    classify_failure,
    first_unsatisfied_atom,
    verify_feasibility,
    verify_success,
)
from .world import ActionRequest, Feedback, World

# A trial also ends after this many requests per allowed execution step, so a
# planner that only issues perception calls still terminates.
REQUEST_CAP_FACTOR = 10


@dataclass
class TrialOptions:
    noise: Optional[dict[str, float]] = None  # probability overrides
    recovery_enabled: bool = True
    strict_escalation: bool = False

    def for_suite(self, suite: SuiteConfig) -> "TrialOptions":
        """These options, with the suite's noise profile when they set no noise."""
        return self if self.noise is not None else replace(self, noise=resolve_noise_profile(suite.noise_profile))


# --- trial execution -------------------------------------------------------------


class _Trial:
    """Mutable state for one closed-loop run."""

    def __init__(self, task: TaskSpec, planner: Planner, seed: int, trial_index: int, options: TrialOptions):
        self.task = task
        self.planner = planner
        self.seed = seed
        self.trial_index = trial_index
        self.options = options

        config = vary_config(task.scene, seed)
        config = replace(config, noise=replace(config.noise, rng_seed=seed, **(options.noise or {})))
        self.world = World(config)
        self.belief = Belief()
        self._finding_keys: set[str] = set()
        self.ctx = SkillContext(self.world, self.belief)
        self.history = DialogueHistory(task.instruction)
        self.pending_plan_fix: Optional[FailureRecord] = None

    def _perception_findings(self, request: ActionRequest, fb: Feedback, prior_map) -> None:
        """Ground-truth-assisted accounting for perception failures: a rescan
        of an unchanged receptacle that reveals a new real object proves a
        missed detection; a vanished or unmasked phantom proves a false
        positive. Both count as locally replanned and recovered."""
        if request.verb == "explore_local" and fb.success and prior_map is not None:
            new_map = self.belief.local_maps.get(request.target or "")
            if new_map is not None and new_map.built_version == prior_map.built_version:
                prior_ids = {o.id for o in prior_map.items}
                new_ids = {o.id for o in new_map.items}
                for oid in sorted(new_ids - prior_ids):
                    if oid in self.world.objects:
                        self._finding(f"md:{oid}", "missed_detection", fb, "local",
                                      f"{oid} appeared on re-scan of {request.target}")
                for pid in sorted(prior_ids - new_ids):
                    if pid in self.world.phantoms:
                        self._finding(f"fp:{pid}", "false_positive", fb, "local", f"phantom {pid} vanished on re-scan")
        if (
            request.verb == "report_observation"
            and fb.success
            and fb.observation is not None
            and fb.observation.kind == "close_up"
        ):
            target = request.target or ""
            if target in self.world.phantoms:
                revealed = fb.observation.find(target)
                if revealed is not None and revealed.category != self.world.phantoms[target].believed_category:
                    self._finding(f"fp:{target}", "false_positive", fb, "object",
                                  f"{target} unmasked as {revealed.category} by close-up")

    def _finding(self, key: str, cause: str, fb: Feedback, level: str, detail: str) -> None:
        """Append one replanned-and-recovered perception record, once per key."""
        if key not in self._finding_keys:
            self._finding_keys.add(key)
            self.ctx.records.append(
                FailureRecord(cause, fb.request_index, level, replanned=True, recovered=True, detail=detail)
            )

    # -- the loop ---------------------------------------------------------------------

    def run(self) -> TrialReport:
        task = self.task
        stop, reason = self._loop()
        satisfied = goal_satisfied(self.world, task.goal)
        if stop == "transport":
            outcome = OUTCOME_INVALID
        else:
            # outcome mirrors ground truth exactly
            outcome = OUTCOME_SUCCESS if satisfied else OUTCOME_FAILURE
        if stop == "done":
            reason = reason or ("done" if satisfied else "done without goal")
            if not satisfied:
                self._record_unsatisfiable_df(reason)
        elif outcome == OUTCOME_SUCCESS:
            # the goal holds although the loop ended for another reason
            reason = f"goal satisfied ({reason})"

        if self.pending_plan_fix is not None:
            if outcome == OUTCOME_SUCCESS:
                self.pending_plan_fix.mark_replanned(True)
            else:
                self.pending_plan_fix.mark_direct()

        report = TrialReport(
            task_id=task.id,
            trial_index=self.trial_index,
            seed=self.seed,
            outcome=outcome,
            reason=reason,
            goal_satisfied=satisfied,
            execution_steps=self.ctx.execution_steps,
            successful_steps=self.ctx.successful_steps,
            failure_records=self.ctx.records,
            events=self.ctx.events,
        )
        report.check_identities()
        return report

    def _loop(self) -> tuple[Optional[str], str]:
        """Run steps until the trial must stop. Returns the kind of stop,
        "transport", "done" or None for any other, and its reason; a done()
        gives its message as the reason."""
        task = self.task
        options = self.options
        request_cap = task.step_cap * REQUEST_CAP_FACTOR
        while True:
            if self.ctx.execution_steps >= task.step_cap:
                return None, "step cap"
            if self.ctx.requests_made >= request_cap:
                return None, "request cap"
            verdict_f = None
            if self.belief.global_map is not None:
                verdict_f = verify_feasibility(task.goal, self.belief)
                self.ctx.events.append({"event": "feasibility", **verdict_f.to_json()})
            view = PlannerView(belief=self.belief, feasibility=verdict_f)
            try:
                step = self.planner.next_step(task, self.history, view)
            except TransportError as exc:
                return "transport", f"transport: {exc}"
            except (BudgetExceeded, ParseError) as exc:
                self.ctx.records.append(
                    FailureRecord(
                        "api_call_error", self.ctx.requests_made, "none",
                        direct_failure=True, detail=str(exc),
                    )
                )
                return None, f"plan rejected: {exc}"
            repairs = getattr(self.planner, "last_repairs", 0)
            for _ in range(repairs):
                self.ctx.records.append(
                    FailureRecord(
                        "api_call_error", self.ctx.requests_made, "none",
                        replanned=True, recovered=True, detail="plan repaired after parse diagnostic",
                    )
                )
            text = step.render()
            self.ctx.events.append({"event": "plan", "text": text, "repairs": repairs})
            self.history.append("plan", text)

            if isinstance(step, Done):
                return "done", step.message

            assert isinstance(step, Call)
            if step.warning:
                self.history.append("note", step.warning)
            request = to_request(step)
            # a scan installs a new map and leaves the old one as it was
            prior_map = self.belief.local_maps.get(request.target) if request.verb == "explore_local" else None
            fb, verdict, before = execute(self.ctx, request)
            self._perception_findings(request, fb, prior_map)
            self.history.append_result(fb)

            if self.pending_plan_fix is not None:
                # recovered when the follow-up call is well-formed, even if
                # its physical outcome is a fresh sampled failure
                self.pending_plan_fix.mark_replanned(fb.fault is None or fb.fault.code in PHYSICAL_FAULT_CODES)
                self.pending_plan_fix = None

            if verdict.success:
                continue

            record = classify_failure(verdict, fb)
            self.ctx.records.append(record)
            self.ctx.events.append({"event": "failure", **record.to_json()})

            if record.cause == "api_call_error":
                # plan-level mistake: the diagnostic goes back to the planner
                self.pending_plan_fix = record
                continue
            if not options.recovery_enabled:
                record.mark_direct()
                return None, f"unrecovered {record.cause} (recovery disabled)"
            episode = recover(self.ctx, task.goal, record, request, fb, before, options.strict_escalation)
            if episode.status == "exhausted":
                return None, f"recovery exhausted after {record.cause}"

    def _record_unsatisfiable_df(self, message: str) -> None:
        """A done() that gives up on an infeasible goal: when ground truth does
        hold a matching object the belief must have missed it."""
        if not message.startswith("infeasible"):
            return
        atom = first_unsatisfied_atom(self.task.goal, self.belief)
        if atom is None:
            return
        sel = atom_object_selector(atom)
        if sel is None:
            return
        view = ground_view(self.world)
        if view.select(sel):
            self.ctx.records.append(
                FailureRecord(
                    "missed_detection", self.ctx.requests_made, "none",
                    direct_failure=True,
                    detail=f"gave up although ground truth holds {sel.describe()}",
                )
            )


def run_trial(
    task: TaskSpec,
    planner: Planner,
    seed: int,
    trial_index: int = 0,
    options: Optional[TrialOptions] = None,
) -> TrialReport:
    """Run one closed-loop trial to completion and return its report."""
    return _Trial(task, planner, seed, trial_index, options or TrialOptions()).run()


# --- suites ---------------------------------------------------------------------------


PlannerFactory = Callable[[], Planner]


def make_planner_factory(
    kind: str,
    llm_url: Optional[str] = None,
    llm_model: str = DEFAULT_MODEL,
    timeout: float = DEFAULT_TIMEOUT_S,
) -> PlannerFactory:
    if kind == "scripted":
        return ScriptedPlanner
    if kind == "llm":
        if not llm_url:
            raise ConfigError("planner", "llm planner requires --llm-url")

        def factory() -> Planner:
            return ChatModelPlanner(HttpChatBackend(base_url=llm_url, model=llm_model, timeout=timeout))

        return factory
    raise ConfigError("planner", f"unknown planner {kind!r}")


def run_suite(
    suite: SuiteConfig,
    planner_factory: PlannerFactory,
    out_dir: Optional[str] = None,
    options: Optional[TrialOptions] = None,
    base_seed: int = 0,
    parallel: int = 1,
) -> tuple[MetricsTable, list[TrialReport]]:
    """Run every task's trials (optionally across worker threads, one World
    per trial), write per-trial traces and the aggregate report.

    With ``out_dir`` each trace is encoded when its trial ends, and the
    returned reports carry their counters and failure records but no events:
    ``load_trace_file`` reads the events back from the trace files. The files
    are written together once the last trial has ended, so a trial that
    raises leaves nothing written. Without ``out_dir`` the reports keep their
    events."""
    if parallel < 1:
        raise ConfigError("parallel", f"must be at least 1, got {parallel}")
    options = (options or TrialOptions()).for_suite(suite)
    jobs = []
    for task in suite.tasks:
        for trial_index in range(task.trial_count):
            jobs.append((task, trial_index, task.seed_for(trial_index, base_seed)))

    def run_one(job) -> tuple[TrialReport, Optional[str]]:
        task, trial_index, seed = job
        report = run_trial(task, planner_factory(), seed, trial_index, options)
        if out_dir is None:
            return report, None
        text = trace_text(report)
        report.events = []  # the text holds them until the files are written
        return report, text

    if parallel > 1:
        import concurrent.futures  # a serial run never pays for the thread pool's imports

        with concurrent.futures.ThreadPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(job) for job in jobs]
    reports = [report for report, _ in results]

    if out_dir is not None:
        for report, text in results:
            task_dir = os.path.join(out_dir, report.task_id)
            os.makedirs(task_dir, exist_ok=True)
            write_trace_file(text, os.path.join(task_dir, f"{report.trial_index}.jsonl"))
    table = compute_metrics(reports)
    if out_dir is not None:
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(table.render_text() + "\n")
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(table.render_json() + "\n")
        _write_sidecar_meta(out_dir, suite)
    return table, reports


def _write_sidecar_meta(out_dir: str, suite: SuiteConfig) -> None:
    """Wall-clock metadata lives here and only here, keeping traces and
    reports byte-reproducible."""
    import datetime

    meta = {
        "suite": suite.name,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


# --- replay -----------------------------------------------------------------------------


def replay_verdicts(report: TrialReport) -> list[tuple[dict, SuccessVerdict]]:
    """Re-derive every recorded verdict from its traced evidence and the
    message of the feedback event of the same index. Returns
    (recorded_event, rederived_verdict) pairs; determinism means they agree.
    A verdict event that lacks a field replay reads, holds one of the wrong
    type or has no feedback event raises TraceFormatError."""
    messages = {e.get("index"): e.get("message") for e in report.events if e.get("event") == "feedback"}
    out = []
    for line, event in enumerate(report.events, start=2):  # line 1 is the header
        if event.get("event") != "verdict":
            continue
        try:
            if not all(isinstance(event[key], bool) for key in ("success", "feedback_flag", "delta_consistent")):
                raise TypeError("a recorded verdict flag is not a boolean")
            message = messages.get(event["index"])
            if not isinstance(message, str):
                raise KeyError(f"no feedback message for request {event['index']}")
            out.append((event, _replay_verdict(event, message)))
        except (ConfigError, KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise TraceFormatError(f"verdict event on line {line} is malformed: {exc!r}", line - 1) from exc
    return out


def _replay_verdict(event: dict, message: str) -> SuccessVerdict:
    """The verdict re-derived from one verdict event's request, feedback and
    evidence, and its feedback's ``message``. Of the feedback, the verdict
    reads only its flag, its fault's message and its own message."""
    fault = Fault(event["fault"]["code"], event["fault"]["message"]) if event.get("fault") else None
    details = {}
    if event.get("placed"):
        details["placed"] = event["placed"]
    if event.get("dropped"):
        details["dropped"] = event["dropped"]
    fb = Feedback(
        request_index=event["index"],
        verb=event["verb"],
        success=event["feedback_success"],
        fault=fault,
        message=message,
        details=details,
    )
    location = None
    if event.get("location"):
        location = (event["location"][0], tuple(event["location"][1]))
    request = ActionRequest(verb=event["verb"], target=event.get("target"), location=location)
    return verify_success(Observation.from_json(event["before"]), Observation.from_json(event["after"]), fb, request)


def replay_matches(report: TrialReport) -> bool:
    """Whether every verdict re-derives whole: all fields of ``to_json``."""
    return all(
        all(event.get(key) == value for key, value in verdict.to_json().items())
        for event, verdict in replay_verdicts(report)
    )
