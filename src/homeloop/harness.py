"""Trial runner and suite harness.

The closed loop per trial: ask the planner for the next step given the full
dialogue history and belief; execute it through the skills boundary; verify
success from before/after observations plus the feedback flag; on failure,
classify the cause and either run the hierarchical recovery machinery or hand
the diagnostic back to the planner. The loop ends on done(), goal
satisfaction, exhausted recovery, or the step cap.

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
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any, Callable, Optional

from .errors import BudgetExceeded, ConfigError, Fault, TransportError
from .goals import Goal, goal_satisfied, ground_view, parse_goal
from .perception import Belief
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
from .recovery import EpisodeRunner, RecoveryEpisode, execute
# unused here, but perfbench/tracing.SPANS wraps capture and dispatch at these names
from .recovery import capture, dispatch  # noqa: F401
from .skills import ActionRequest, Feedback, SkillContext
from .trace import (
    OUTCOME_FAILURE,
    OUTCOME_INVALID,
    OUTCOME_SUCCESS,
    TrialReport,
    observation_from_json,
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
from .world import (
    NoiseModel, World, WorldConfig, as_json, as_number, check_noise_fields, load_config_file, parse_config,
    read_json, vary_config,
)

DEFAULT_STEP_CAP = 100
# A trial also ends after this many requests per allowed execution step, so a
# planner that only issues perception calls still terminates.
REQUEST_CAP_FACTOR = 10

NOISE_PROFILES: dict[str, dict[str, float]] = {
    "zero": {name: 0.0 for name in NoiseModel.PROB_FIELDS},
    "default": {},  # NoiseModel defaults
    "realistic": {},  # alias for the defaults
}


@dataclass
class TaskSpec:
    id: str
    name: str
    instruction: str
    scene: WorldConfig
    goal: Goal
    trial_count: int
    seeds: list[int] = field(default_factory=list)
    placement_style: Optional[str] = None
    step_cap: int = DEFAULT_STEP_CAP

    def seed_for(self, trial_index: int, base: int = 0) -> int:
        """Seed ``i`` of the cycled seed list, or ``i`` mod the trial count without one."""
        seed = self.seeds[trial_index % len(self.seeds)] if self.seeds else trial_index % self.trial_count
        return seed + base * 100003


@dataclass
class TrialOptions:
    noise: Optional[dict[str, float]] = None  # probability overrides
    recovery_enabled: bool = True
    strict_escalation: bool = False


def resolve_noise_profile(profile: "str | dict[str, float] | None") -> dict[str, float]:
    if profile is None:
        return {}
    if isinstance(profile, str):
        if profile not in NOISE_PROFILES:
            raise ConfigError("noise_profile", f"unknown profile {profile!r}; known: {sorted(NOISE_PROFILES)}")
        return dict(NOISE_PROFILES[profile])
    return check_noise_fields(profile, "noise_profile", with_seed=False)


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
        options = self.options
        request_cap = task.step_cap * REQUEST_CAP_FACTOR
        outcome = OUTCOME_FAILURE
        reason = "unset"

        while True:
            if self.ctx.execution_steps >= task.step_cap:
                reason = "step cap"
                break
            if self.ctx.requests_made >= request_cap:
                reason = "request cap"
                break
            verdict_f = None
            if self.belief.global_map is not None:
                verdict_f = verify_feasibility(task.goal, self.belief)
                self.ctx.events.append({"event": "feasibility", **verdict_f.to_json()})
            view = PlannerView(belief=self.belief, feasibility=verdict_f)
            try:
                step = self.planner.next_step(task, self.history, view)
            except TransportError as exc:
                outcome, reason = OUTCOME_INVALID, f"transport: {exc}"
                break
            except (BudgetExceeded, ParseError) as exc:
                self.ctx.records.append(
                    FailureRecord(
                        "api_call_error", self.ctx.requests_made, "none",
                        direct_failure=True, detail=str(exc),
                    )
                )
                outcome, reason = OUTCOME_FAILURE, f"plan rejected: {exc}"
                break
            repairs = getattr(self.planner, "last_repairs", 0)
            for _ in range(repairs):
                self.ctx.records.append(
                    FailureRecord(
                        "api_call_error", self.ctx.requests_made, "none",
                        replanned=True, recovered=True, detail="plan repaired after parse diagnostic",
                    )
                )
            self.ctx.events.append({"event": "plan", "text": step.render(), "repairs": repairs})
            self.history.append_plan(step.render())

            if isinstance(step, Done):
                satisfied = goal_satisfied(self.world, task.goal)
                if satisfied:
                    outcome, reason = OUTCOME_SUCCESS, step.message or "done"
                else:
                    outcome, reason = OUTCOME_FAILURE, step.message or "done without goal"
                    self._record_unsatisfiable_df(step.message)
                break

            assert isinstance(step, Call)
            if step.warning:
                self.history.append_note(step.warning)
            request = to_request(step)
            held_before = self.belief.holding
            # a scan installs a new map and leaves the old one as it was
            prior_map = self.belief.local_maps.get(request.target) if request.verb == "explore_local" else None
            fb, verdict, before = execute(self.ctx, request)
            self._perception_findings(request, fb, prior_map)
            self.history.append_feedback(fb.render())
            if fb.observation is not None and fb.verb != "explore_global":
                self.history.append_observation(_compact_observation(fb))

            if self.pending_plan_fix is not None:
                # recovered when the follow-up call is well-formed, even if
                # its physical outcome is a fresh sampled failure
                self.pending_plan_fix.mark_replanned(fb.fault is None or fb.fault.code in PHYSICAL_FAULT_CODES)
                self.pending_plan_fix = None

            if fb.success and verdict.success:
                continue

            record = classify_failure(verdict, fb, None)
            self.ctx.records.append(record)
            self.ctx.events.append({"event": "failure", **record.to_json()})

            if record.cause == "api_call_error":
                # plan-level mistake: the diagnostic goes back to the planner
                self.pending_plan_fix = record
                continue
            if not options.recovery_enabled:
                record.mark_direct()
                outcome, reason = OUTCOME_FAILURE, f"unrecovered {record.cause} (recovery disabled)"
                break

            episode = RecoveryEpisode(
                failure=record,
                verb=request.verb,
                object_id=_episode_object(request, fb, held_before),
                target=request.target,
                location=request.location,
                # the first shift check reads this as it read the full view:
                # a grasp's target is in its evidence, and a place moves no
                # object in view
                last_before=before,
                strict_escalation=options.strict_escalation,
            )
            EpisodeRunner(self.ctx, task.goal).run(episode)
            self.ctx.events.append(
                {
                    "event": "episode_end",
                    "status": episode.status,
                    "attempts": dict(episode.attempts),
                    "levels": episode.levels,
                }
            )
            if episode.status == "exhausted":
                outcome, reason = OUTCOME_FAILURE, f"recovery exhausted after {record.cause}"
                break

        satisfied = goal_satisfied(self.world, task.goal)
        if outcome != OUTCOME_INVALID:
            # outcome mirrors ground truth exactly: a trial that reached the
            # goal is a success even if the loop ended for another reason
            if satisfied and outcome == OUTCOME_FAILURE:
                outcome, reason = OUTCOME_SUCCESS, f"goal satisfied ({reason})"
            elif not satisfied and outcome == OUTCOME_SUCCESS:
                outcome = OUTCOME_FAILURE

        if self.pending_plan_fix is not None:
            fix = self.pending_plan_fix
            if outcome == OUTCOME_SUCCESS:
                fix.mark_replanned(True)
            else:
                fix.mark_direct()
            self.pending_plan_fix = None

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


def _episode_object(request: ActionRequest, fb: Feedback, held_before: Optional[str]) -> Optional[str]:
    if request.verb == "grasp":
        return request.target
    if request.verb == "place":
        return fb.details.get("placed") or fb.details.get("dropped") or held_before
    return None


def _compact_observation(fb: Feedback) -> str:
    obs = fb.observation
    assert obs is not None
    parts = [
        f"{o.id}({o.category}{';' + ','.join(sorted(o.attributes)) if o.attributes else ''})"
        for o in obs.visible
    ]
    return f"{obs.kind}: " + (", ".join(parts) or "nothing")


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


@dataclass
class SuiteConfig:
    name: str
    tasks: list[TaskSpec]
    noise_profile: "str | dict[str, float]" = "default"
    planner: str = "scripted"


def _read_builtin(kind: str, name: str, field: str) -> Any:
    """The bundled document ``data/<kind>/<name>.json``."""
    ref = resources.files("homeloop").joinpath(f"data/{kind}/{name}.json")
    if not ref.is_file():
        raise ConfigError(field, f"no builtin {kind[:-1]} {name!r}")
    return json.loads(ref.read_text("utf-8"))


def _resolve_scene(ref: str, base_dir: Optional[str], field: str) -> WorldConfig:
    if ref.startswith("builtin:"):
        return parse_config(_read_builtin("scenes", ref.split(":", 1)[1], field))
    path = ref if os.path.isabs(ref) or base_dir is None else os.path.join(base_dir, ref)
    return load_config_file(path, field)


def _count(value: Any, path: str) -> int:
    """``value`` as an int of at least 1."""
    number = as_number(value, path, int)
    if number < 1:
        raise ConfigError(path, f"expected an integer >= 1, got {value!r}")
    return number


def parse_suite(raw: dict, base_dir: Optional[str] = None) -> SuiteConfig:
    as_json(raw, dict, "suite")
    raw_tasks = as_json(raw.get("tasks", []), list, "tasks")
    if not raw_tasks:
        raise ConfigError("tasks", "no tasks")
    tasks = []
    for i, t in enumerate(raw_tasks):
        path = f"tasks[{i}]"
        as_json(t, dict, path)
        for key in ("id", "instruction", "scene", "goal"):
            if key not in t:
                raise ConfigError(f"{path}.{key}", "missing required field")
        if t.get("placement_style") is not None:
            as_json(t["placement_style"], str, f"{path}.placement_style")
        seeds = as_json(t.get("seeds", []), list, f"{path}.seeds")
        tasks.append(
            TaskSpec(
                id=str(t["id"]),
                name=str(t.get("name", t["id"])),
                instruction=str(t["instruction"]),
                scene=_resolve_scene(str(t["scene"]), base_dir, f"{path}.scene"),
                goal=parse_goal(t["goal"], f"{path}.goal"),
                trial_count=_count(t.get("trials", 5), f"{path}.trials"),
                seeds=[as_number(s, f"{path}.seeds[{k}]", int) for k, s in enumerate(seeds)],
                placement_style=t.get("placement_style"),
                step_cap=_count(t.get("step_cap", DEFAULT_STEP_CAP), f"{path}.step_cap"),
            )
        )
    noise_profile = raw.get("noise_profile", "default")
    resolve_noise_profile(noise_profile)  # checked here; the suite keeps it as written
    return SuiteConfig(
        name=str(raw.get("name", "suite")),
        tasks=tasks,
        noise_profile=noise_profile,
        planner=str(raw.get("planner", "scripted")),
    )


def load_suite_file(path: str) -> SuiteConfig:
    return parse_suite(read_json(path, "suite"), base_dir=os.path.dirname(os.path.abspath(path)))


def load_builtin_suite(name: str) -> SuiteConfig:
    return parse_suite(_read_builtin("suites", name, "suite"), base_dir=None)


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
    per trial), write per-trial traces and the aggregate report."""
    options = options or TrialOptions()
    if options.noise is None:
        options = replace(options, noise=resolve_noise_profile(suite.noise_profile))
    jobs = []
    for task in suite.tasks:
        for trial_index in range(task.trial_count):
            jobs.append((task, trial_index, task.seed_for(trial_index, base_seed)))

    def run_one(job):
        task, trial_index, seed = job
        return run_trial(task, planner_factory(), seed, trial_index, options)

    if parallel > 1:
        import concurrent.futures  # a serial run never pays for the thread pool's imports

        with concurrent.futures.ThreadPoolExecutor(max_workers=parallel) as pool:
            reports = list(pool.map(run_one, jobs))
    else:
        reports = [run_one(job) for job in jobs]

    if out_dir is not None:
        for report in reports:
            task_dir = os.path.join(out_dir, report.task_id)
            os.makedirs(task_dir, exist_ok=True)
            write_trace_file(report, os.path.join(task_dir, f"{report.trial_index}.jsonl"))
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
    """Re-derive every recorded verdict from its traced evidence. Returns
    (recorded_event, rederived_verdict) pairs; determinism means they agree."""
    out = []
    for event in report.events:
        if event.get("event") != "verdict":
            continue
        # the verdict reads only whether a fault exists and its message
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
            message="",
            details=details,
        )
        location = None
        if event.get("location"):
            location = (event["location"][0], tuple(event["location"][1]))
        request = ActionRequest(verb=event["verb"], target=event.get("target"), location=location)
        verdict = verify_success(
            observation_from_json(event["before"]),
            observation_from_json(event["after"]),
            fb,
            request,
        )
        out.append((event, verdict))
    return out


def replay_matches(report: TrialReport) -> bool:
    for event, verdict in replay_verdicts(report):
        if (
            event["success"] != verdict.success
            or event["feedback_flag"] != verdict.feedback_flag
            or event["delta_consistent"] != verdict.delta_consistent
            or event.get("suspected_cause") != verdict.suspected_cause
        ):
            return False
    return True
