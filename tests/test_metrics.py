from __future__ import annotations

import pytest

from homeloop.metrics import EMPTY_RATIO, Ratio, compute_metrics
from homeloop.trace import TrialReport
from homeloop.verification import CAUSES, FailureRecord


def trial(task_id, success, steps_ok, steps_all, records=(), trial_index=0):
    return TrialReport(
        task_id=task_id,
        trial_index=trial_index,
        seed=trial_index,
        outcome="success" if success else "failure",
        reason="",
        goal_satisfied=success,
        execution_steps=steps_all,
        successful_steps=steps_ok,
        failure_records=list(records),
    )


def recovered(cause):
    return FailureRecord(cause, 0, "object", replanned=True, recovered=True)


def failed_replan(cause):
    return FailureRecord(cause, 0, "object", replanned=True, recovered=False)


def direct(cause):
    record = FailureRecord(cause, 0, "none")
    record.mark_direct()
    return record


def split(total, num_true):
    return [i < num_true for i in range(total)]


def per_task_reports(task_id, trials, successes, ssr_num, ssr_den, rr_num, rr_den):
    """Synthesize per-trial reports whose sums hit the target tallies."""
    reports = []
    flags = split(trials, successes)
    base_steps = ssr_den // trials
    base_ok = ssr_num // trials
    step_rem = ssr_den - base_steps * trials
    ok_rem = ssr_num - base_ok * trials
    rr_flags = split(rr_den, rr_num)
    for i, ok in enumerate(flags):
        steps = base_steps + (1 if i < step_rem else 0)
        good = base_ok + (1 if i < ok_rem else 0)
        records = []
        if i == 0:
            records = [
                FailureRecord("grasp_failed", 0, "object", replanned=True, recovered=flag)
                for flag in rr_flags
            ]
        reports.append(trial(task_id, ok, good, steps, records, trial_index=i))
    return reports


def test_mobile_totals_fixture():
    # hand-built per-task tallies: 3/5 17/20 2/4, 2/5 30/42 1/4,
    # 4/5 27/30 4/5, 4/5 27/30 7/10 -> totals 13/20, 101/122, 14/23
    reports = []
    reports += per_task_reports("move_toy", 5, 3, 17, 20, 2, 4)
    reports += per_task_reports("transfer_all_toys", 5, 2, 30, 42, 1, 4)
    reports += per_task_reports("move_cup_and_toy", 5, 4, 27, 30, 4, 5)
    reports += per_task_reports("gather_cups", 5, 4, 27, 30, 7, 10)
    table = compute_metrics(reports)
    assert table.total_row.sr.render() == "13/20"
    assert table.total_row.ssr.render() == "101/122"
    assert table.total_row.rr.render() == "14/23"
    by_id = {row.task_id: row for row in table.task_rows}
    assert by_id["move_toy"].sr.render() == "3/5"
    assert by_id["move_toy"].ssr.render() == "17/20"
    assert by_id["gather_cups"].rr.render() == "7/10"


def test_failure_breakdown_fixture():
    # hand-built tallies targeting the published totals: 38 replanned of
    # which 31 recovered, 14 direct failures, 38 + 14 = 52 failures overall,
    # with the navigation row an exact 0/0
    def rows(cause, df, rec, rep, total):
        out = [recovered(cause) for _ in range(rec)]
        out += [failed_replan(cause) for _ in range(rep - rec)]
        out += [direct(cause) for _ in range(df)]
        assert len(out) == total
        return out

    records = []
    records += rows("false_positive", 3, 5, 5, 8)
    records += rows("missed_detection", 1, 1, 1, 2)
    records += rows("visual_feedback_error", 2, 1, 1, 3)
    records += rows("api_call_error", 3, 5, 5, 8)
    records += rows("grasp_failed", 1, 16, 23, 24)
    records += rows("place_failed", 3, 3, 3, 6)
    records += rows("navigation_failed", 1, 0, 0, 1)
    reports = [trial("all", False, 0, 10, records)]
    table = compute_metrics(reports)
    total = table.failure_total
    assert total.direct == 14
    assert total.recovery_rate.render() == "31/38"
    assert total.overall.render() == "31/52"
    # structural identity: failures = replanned + direct
    assert total.total == total.replanned + total.direct == 52
    nav = next(r for r in table.failure_rows if r.cause == "navigation_failed")
    assert nav.recovery_rate.render() == EMPTY_RATIO  # 0/0 renders as a dash
    assert nav.overall.render() == "0/1"
    grasp = next(r for r in table.failure_rows if r.cause == "grasp_failed")
    assert grasp.recovery_rate.render() == "16/23"
    # one row per cause of the closed vocabulary, in its order
    assert [r.cause for r in table.failure_rows] == list(CAUSES)


def test_baseline_column_fixture():
    # the no-recovery comparison column: 2/5 + 1/5 + 1/5 + 2/5 = 6/20 and
    # 13/20 + 24/42 + 17/30 + 22/33 = 76/125, with no replans at all
    reports = []
    reports += per_task_reports("move_toy", 5, 2, 13, 20, 0, 0)
    reports += per_task_reports("transfer_all_toys", 5, 1, 24, 42, 0, 0)
    reports += per_task_reports("move_cup_and_toy", 5, 1, 17, 30, 0, 0)
    reports += per_task_reports("gather_cups", 5, 2, 22, 33, 0, 0)
    table = compute_metrics(reports)
    assert table.total_row.sr.render() == "6/20"
    assert table.total_row.ssr.render() == "76/125"
    assert table.total_row.rr.render() == EMPTY_RATIO


def test_single_clean_trial_renders_dash_rr():
    table = compute_metrics([trial("solo", True, 4, 4)])
    assert table.total_row.sr.render() == "1/1"
    assert table.total_row.ssr.render() == "4/4"
    assert table.total_row.rr.render() == EMPTY_RATIO


def test_fractions_stay_integer_pairs():
    table = compute_metrics([trial("a", True, 3, 4), trial("a", False, 1, 6, trial_index=1)])
    row = table.task_rows[0]
    assert (row.sr.num, row.sr.den) == (1, 2)
    assert (row.ssr.num, row.ssr.den) == (4, 10)


def test_invalid_trials_excluded_with_note():
    bad = trial("a", False, 0, 0)
    bad.outcome = "infrastructure-invalid"
    table = compute_metrics([trial("a", True, 2, 2), bad])
    assert table.total_row.sr.render() == "1/1"
    assert table.invalid_trials == 1
    assert "infrastructure-invalid" in table.render_text()


def test_no_reports_rejected():
    with pytest.raises(ValueError):
        compute_metrics([])


def test_text_render_layout():
    table = compute_metrics([trial("move_toy", True, 4, 4)])
    text = table.render_text()
    assert "Task" in text and "SSR" in text
    assert "move_toy" in text
    assert "Failure cause" in text


def test_ratio_arithmetic():
    assert (Ratio(1, 2) + Ratio(3, 4)).render() == "4/6"
    assert Ratio(0, 0).render() == EMPTY_RATIO
    assert Ratio(0, 3).render() == "0/3"
