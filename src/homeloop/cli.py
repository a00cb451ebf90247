"""Command-line surface.

Subcommands: run a suite, run a single trial, replay a trace, render a report
from trace files, validate configs, and probe a chat endpoint. Exit codes:
0 success, 1 suite ran but direct failures occurred, 2 usage/config error,
3 infrastructure error. Errors print to stderr with a machine-parsable
``error:`` prefix.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Optional

from .config import load_document, resolve_noise_profile
from .errors import ConfigError, TraceFormatError, TransportError
from .harness import TrialOptions, make_planner_factory, replay_matches, run_suite, run_trial
from .metrics import compute_metrics
from .planning import SYSTEM_PROMPT, HttpChatBackend, ParseError, parse_plan
from .planning.adapter import DEFAULT_MODEL, DEFAULT_TIMEOUT_S
from .trace import OUTCOME_INVALID, OUTCOME_SUCCESS, load_trace_file, trace_text, write_trace_file

EXIT_OK = 0
EXIT_TASK_FAILURES = 1
EXIT_USAGE = 2
EXIT_INFRA = 3


def _err(code: str, message: str) -> None:
    print(f"error: [{code}] {message}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homeloop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common_planner = argparse.ArgumentParser(add_help=False)
    common_planner.add_argument("--planner", choices=("scripted", "llm"), default="scripted")
    common_planner.add_argument("--seed", type=int, default=0)
    common_planner.add_argument("--noise-profile", default=None,
                                help="zero | default | realistic | inline JSON object")
    common_planner.add_argument("--no-recovery", action="store_true")
    common_planner.add_argument("--strict-escalation", action="store_true")
    common_planner.add_argument("--llm-url", default=None)
    common_planner.add_argument("--llm-model", default=DEFAULT_MODEL)
    common_planner.add_argument("--timeout-secs", type=float, default=DEFAULT_TIMEOUT_S)

    p_run = sub.add_parser("run", parents=[common_planner], help="run a full suite")
    p_run.add_argument("--suite", required=True, help="suite JSON path or builtin:<name>")
    p_run.add_argument("--out", default="out", help="output directory for traces and reports")
    p_run.add_argument("--parallel", type=int, default=1)

    p_trial = sub.add_parser("trial", parents=[common_planner], help="run one trial of one task")
    p_trial.add_argument("--suite", default="builtin:benchmark")
    p_trial.add_argument("--task", required=True, help="task id, e.g. A1")
    p_trial.add_argument("--trial-index", type=int, default=0)
    p_trial.add_argument("--out", default=None, help="optional trace output path")

    p_replay = sub.add_parser("replay", help="re-derive verdicts from a trace")
    p_replay.add_argument("--trace", required=True)

    p_report = sub.add_parser("report", help="aggregate trace files into a metrics table")
    p_report.add_argument("--traces", required=True, help="directory of <task>/<trial>.jsonl files")
    p_report.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p_validate = sub.add_parser("validate", help="check a scene or suite config; writes nothing")
    p_validate.add_argument("--scene", default=None, help="scene JSON path or builtin:<name>")
    p_validate.add_argument("--suite", default=None, help="suite JSON path or builtin:<name>")

    p_probe = sub.add_parser("probe-llm", help="send one canned prompt to a chat endpoint")
    p_probe.add_argument("--llm-url", required=True)
    p_probe.add_argument("--llm-model", default=DEFAULT_MODEL)
    p_probe.add_argument("--timeout-secs", type=float, default=DEFAULT_TIMEOUT_S)

    return parser


def _options_from(args: argparse.Namespace) -> TrialOptions:
    noise = None
    if args.noise_profile is not None:
        raw = args.noise_profile
        noise = resolve_noise_profile(json.loads(raw) if raw.strip().startswith("{") else raw)
    return TrialOptions(
        noise=noise,
        recovery_enabled=not args.no_recovery,
        strict_escalation=args.strict_escalation,
    )


def _planner_factory(args: argparse.Namespace):
    return make_planner_factory(
        args.planner, llm_url=args.llm_url, llm_model=args.llm_model, timeout=args.timeout_secs
    )


def cmd_run(args: argparse.Namespace) -> int:
    suite = load_document(args.suite, "suite")
    factory = _planner_factory(args)
    options = _options_from(args)
    table, reports = run_suite(
        suite, factory, out_dir=args.out, options=options, base_seed=args.seed, parallel=args.parallel
    )
    print(table.render_text())
    if any(r.outcome == OUTCOME_INVALID for r in reports):
        return EXIT_INFRA
    if table.failure_total.direct > 0:
        return EXIT_TASK_FAILURES
    return EXIT_OK


def cmd_trial(args: argparse.Namespace) -> int:
    suite = load_document(args.suite, "suite")
    task = next((t for t in suite.tasks if t.id == args.task), None)
    if task is None:
        raise ConfigError("task", f"no task {args.task!r} in suite {suite.name!r}")
    if args.trial_index < 0:
        raise ConfigError("trial_index", f"must be at least 0, got {args.trial_index}")
    factory = _planner_factory(args)
    options = _options_from(args).for_suite(suite)
    seed = task.seed_for(args.trial_index, args.seed)
    report = run_trial(task, factory(), seed, args.trial_index, options)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        write_trace_file(trace_text(report), args.out)
    print(
        f"{task.id} trial {args.trial_index} seed {seed}: {report.outcome} ({report.reason}); "
        f"steps {report.successful_steps}/{report.execution_steps}"
    )
    if report.outcome == OUTCOME_INVALID:
        return EXIT_INFRA
    return EXIT_OK if report.outcome == OUTCOME_SUCCESS else EXIT_TASK_FAILURES


def cmd_replay(args: argparse.Namespace) -> int:
    report = load_trace_file(args.trace)
    if replay_matches(report):
        print(f"replay ok: {args.trace} ({len(report.events)} events, outcome {report.outcome})")
        return EXIT_OK
    _err("replay-mismatch", f"re-derived verdicts differ for {args.trace}")
    return EXIT_TASK_FAILURES


def cmd_report(args: argparse.Namespace) -> int:
    paths = sorted(glob.glob(os.path.join(args.traces, "*", "*.jsonl")))
    if not paths:
        raise ConfigError("traces", f"no trace files under {args.traces!r}")
    reports = [load_trace_file(p) for p in paths]
    table = compute_metrics(reports)
    print(table.render_json() if args.json else table.render_text())
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if not args.scene and not args.suite:
        raise ConfigError("validate", "pass --scene and/or --suite")
    if args.scene:
        config = load_document(args.scene, "scene")
        print(f"scene ok: {config.name} ({len(config.furniture)} furniture, {len(config.objects)} objects)")
    if args.suite:
        suite = load_document(args.suite, "suite")
        print(f"suite ok: {suite.name} ({len(suite.tasks)} tasks)")
    return EXIT_OK


def cmd_probe_llm(args: argparse.Namespace) -> int:
    backend = HttpChatBackend(
        base_url=args.llm_url, model=args.llm_model, timeout=args.timeout_secs
    )
    messages = [
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": "Instruction: reply with a single line: explore_global()"},
    ]
    reply = backend.complete(messages)
    try:
        steps = parse_plan(reply)
    except ParseError as exc:
        _err("probe-parse", f"endpoint reachable but reply did not parse: {exc.render()}")
        return EXIT_TASK_FAILURES
    print(f"probe ok: first step = {steps[0].render()}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "trial": cmd_trial,
        "replay": cmd_replay,
        "report": cmd_report,
        "validate": cmd_validate,
        "probe-llm": cmd_probe_llm,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        _err("config", str(exc))
        return EXIT_USAGE
    except TraceFormatError as exc:
        _err("trace", str(exc))
        return EXIT_USAGE
    except TransportError as exc:
        _err("infrastructure", str(exc))
        return EXIT_INFRA
    except ValueError as exc:  # json.JSONDecodeError among them
        _err("usage", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
