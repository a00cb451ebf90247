from __future__ import annotations

import json
import os

import pytest

from homeloop.cli import main

from mock_llm import MockChatServer


@pytest.fixture
def tiny_suite(tmp_path):
    scene = {
        "name": "tiny",
        "room": {"width": 4.0, "height": 3.0},
        "robot_start": {"x": 2.0, "y": 1.5},
        "furniture": [
            {"id": "table_0", "category": "table",
             "footprint": [[0.5, 2.0], [1.7, 2.0], [1.7, 2.7], [0.5, 2.7]], "surface_height": "mid"},
            {"id": "bed_0", "category": "bed",
             "footprint": [[2.4, 0.3], [3.6, 0.3], [3.6, 1.3], [2.4, 1.3]], "surface_height": "low"},
        ],
        "objects": [{"id": "toy_0", "category": "toy", "on": "table_0", "offset": [0.3, -0.1]}],
        "noise": {"rng_seed": 0},
    }
    scene_path = tmp_path / "tiny.json"
    scene_path.write_text(json.dumps(scene))
    suite = {
        "name": "tiny-suite",
        "noise_profile": "zero",
        "tasks": [
            {
                "id": "T1",
                "instruction": "Move the toy to the bed.",
                "scene": "tiny.json",
                "goal": {"on": {"object": {"id": "toy_0"}, "receptacle": {"id": "bed_0"}}},
                "trials": 2,
            }
        ],
    }
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite))
    return scene_path, suite_path


def test_validate_scene_and_suite(tiny_suite, capsys):
    scene_path, suite_path = tiny_suite
    before = sorted(os.listdir(scene_path.parent))
    code = main(["validate", "--scene", str(scene_path), "--suite", str(suite_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "scene ok" in out and "suite ok" in out
    assert sorted(os.listdir(scene_path.parent)) == before  # never writes
    assert main(["validate", "--scene", "builtin:move_toy"]) == 0
    assert "scene ok: " in capsys.readouterr().out


def test_validate_reports_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"room": {"width": -1, "height": 2}, "robot_start": {"x": 0, "y": 0}}))
    code = main(["validate", "--scene", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_suite_exit_zero_and_outputs(tiny_suite, tmp_path, capsys):
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    code = main(["run", "--suite", str(suite_path), "--planner", "scripted", "--seed", "0",
                 "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "T1" / "0.jsonl").exists()
    assert (out_dir / "report.txt").exists()
    assert "2/2" in capsys.readouterr().out


def test_run_same_seed_same_bytes(tiny_suite, tmp_path):
    _, suite_path = tiny_suite
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--suite", str(suite_path), "--seed", "5", "--out", str(out_a)]) == 0
    assert main(["run", "--suite", str(suite_path), "--seed", "5", "--out", str(out_b)]) == 0
    trace_a = (out_a / "T1" / "0.jsonl").read_bytes()
    trace_b = (out_b / "T1" / "0.jsonl").read_bytes()
    assert trace_a == trace_b
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()


def test_replay_trace_exit_zero(tiny_suite, tmp_path, capsys):
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    main(["run", "--suite", str(suite_path), "--out", str(out_dir)])
    code = main(["replay", "--trace", str(out_dir / "T1" / "0.jsonl")])
    assert code == 0
    assert "replay ok" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["\n\n", "[1]\n"], ids=["blank-lines", "array-first-line"])
def test_replay_of_a_malformed_trace_exits_2(tmp_path, capsys, text):
    trace = tmp_path / "f.jsonl"
    trace.write_text(text)
    assert main(["replay", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: [trace]")


def edit_first(path, event, edit, verb=None):
    """Apply ``edit`` to the first JSON line of ``path`` whose event is
    ``event`` (and whose verb is ``verb``, when given)."""
    lines = path.read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    i = next(i for i, doc in enumerate(docs) if doc.get("event") == event and verb in (None, doc.get("verb")))
    edit(docs[i])
    lines[i] = json.dumps(docs[i])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", ["replay", "report"])
def test_an_unknown_failure_cause_in_the_footer_exits_2(tiny_suite, tmp_path, capsys, command):
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    main(["run", "--suite", str(suite_path), "--out", str(out_dir)])
    trace = out_dir / "T1" / "0.jsonl"
    record = {"cause": "bogus", "request_index": 0, "recovery_level": "object", "direct_failure": True,
              "replanned": False, "recovered": False, "detail": ""}
    edit_first(trace, "trial_end", lambda doc: doc["failure_records"].append(record))
    capsys.readouterr()
    args = ["replay", "--trace", str(trace)] if command == "replay" else ["report", "--traces", str(out_dir)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: [trace]")


def _record(footer, **fields):
    # counted as replanned and recovered, the tallies agree with the record
    footer["failure_records"].append({"cause": "grasp_failed", "request_index": 0, "recovery_level": "object",
                                      "direct_failure": False, "replanned": True, "recovered": True, "detail": "",
                                      **fields})
    footer["counters"].update(replanned_executions=1, recovered_executions=1)


def _unwritten_outcome(footer):
    # an outcome write_trace never writes; with the goal unsatisfied it keeps every identity
    footer.update(outcome="succeeded", goal_satisfied=False)


@pytest.mark.parametrize("event, edit", [
    (None, lambda header: header.update(task=["A"])),  # the header is the first line, with no event
    ("trial_end", lambda footer: footer["counters"].update(execution_steps="5", successful_steps="4")),
    ("trial_end", lambda footer: _record(footer, replanned="no", recovered="no")),
    ("trial_end", lambda footer: _record(footer, request_index="zero", detail=5)),
    ("trial_end", lambda footer: _record(footer, request_index=True)),
    ("trial_end", _unwritten_outcome),
], ids=["task-a-list", "step-counters-strings", "record-flags-strings", "record-index-string-detail-number",
        "record-index-boolean", "outcome-unwritten"])
@pytest.mark.parametrize("command", ["replay", "report"])
def test_a_mistyped_header_footer_or_record_exits_2(tiny_suite, tmp_path, capsys, command, event, edit):
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    main(["run", "--suite", str(suite_path), "--out", str(out_dir)])
    trace = out_dir / "T1" / "0.jsonl"
    edit_first(trace, event, edit)
    capsys.readouterr()
    args = ["replay", "--trace", str(trace)] if command == "replay" else ["report", "--traces", str(out_dir)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: [trace]")


def test_replay_of_a_verdict_without_its_flag_exits_2(tiny_suite, tmp_path, capsys):
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    main(["run", "--suite", str(suite_path), "--out", str(out_dir)])
    trace = out_dir / "T1" / "0.jsonl"
    edit_first(trace, "verdict", lambda doc: doc.pop("feedback_success"))
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: [trace]")


def _drop_pose_and_step(before):
    del before["visible"][0]["pose"], before["step"]


@pytest.mark.parametrize("verb, edit", [
    ("place", lambda doc: doc["after"]["visible"][0].pop("parent")),
    ("grasp", lambda doc: _drop_pose_and_step(doc["before"])),
], ids=["place-after-without-parent", "grasp-before-without-pose-and-step"])
def test_replay_of_verdict_evidence_missing_a_key_exits_2(tiny_suite, tmp_path, capsys, verb, edit):
    # a malformed file, not a determinism failure, and never a replay ok
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    main(["run", "--suite", str(suite_path), "--out", str(out_dir)])
    trace = out_dir / "T1" / "0.jsonl"
    edit_first(trace, "verdict", edit, verb)
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: [trace]")


def test_replay_of_a_verdict_whose_pose_is_strings_exits_2(tiny_suite, tmp_path, capsys):
    # a number in a trace is a JSON number, never a string that float() reads
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    main(["run", "--suite", str(suite_path), "--out", str(out_dir)])
    trace = out_dir / "T1" / "0.jsonl"
    edit_first(trace, "verdict", lambda doc: doc["before"]["visible"][0].update(pose=["1.5", " 2 "]), "grasp")
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: [trace]")


def test_replay_of_a_rewritten_explanation_exits_1(tiny_suite, tmp_path, capsys):
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    main(["run", "--suite", str(suite_path), "--out", str(out_dir)])
    trace = out_dir / "T1" / "0.jsonl"
    edit_first(trace, "verdict", lambda doc: doc.update(explanation="anything at all"))
    capsys.readouterr()
    assert main(["replay", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error: [replay-mismatch]")


def _more_successful_than_executed(footer):
    footer["counters"]["successful_steps"] = footer["counters"]["execution_steps"] + 1


def _success_without_the_goal(footer):
    assert footer["outcome"] == "success"
    footer["goal_satisfied"] = False


def _a_counter_that_is_not_a_number(footer):
    footer["counters"]["successful_steps"] = "x"


@pytest.mark.parametrize("edit", [_more_successful_than_executed, _success_without_the_goal,
                                  _a_counter_that_is_not_a_number],
                         ids=["successful-over-executed", "success-without-goal", "counter-not-a-number"])
def test_a_footer_that_breaks_an_accounting_identity_exits_2(tiny_suite, tmp_path, capsys, edit):
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    main(["run", "--suite", str(suite_path), "--out", str(out_dir)])
    trace = out_dir / "T1" / "0.jsonl"
    edit_first(trace, "trial_end", edit)
    for args in (["replay", "--trace", str(trace)], ["report", "--traces", str(out_dir)]):
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: [trace]")


def test_report_from_trace_directory(tiny_suite, tmp_path, capsys):
    _, suite_path = tiny_suite
    out_dir = tmp_path / "out"
    main(["run", "--suite", str(suite_path), "--out", str(out_dir)])
    capsys.readouterr()  # drop the run command's own table
    code = main(["report", "--traces", str(out_dir), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"]["sr"] == [2, 2]


@pytest.mark.parametrize("command", ["trial", "run"])
def test_trial_llm_without_credential_exits_3(tiny_suite, tmp_path, monkeypatch, capsys, command):
    # the chat backend's own check fails the first planner built, before any trial runs
    _, suite_path = tiny_suite
    monkeypatch.delenv("COME_LLM_API_KEY", raising=False)
    out = tmp_path / "out"
    args = ["--task", "T1"] if command == "trial" else ["--out", str(out), "--parallel", "2"]
    code = main([command, "--suite", str(suite_path), *args, "--planner", "llm", "--llm-url", "http://127.0.0.1:9"])
    assert code == 3
    assert "missing credential" in capsys.readouterr().err
    assert not out.exists()


def test_trial_scripted_single(tiny_suite, tmp_path, capsys):
    _, suite_path = tiny_suite
    trace = tmp_path / "trial.jsonl"
    code = main(["trial", "--suite", str(suite_path), "--task", "T1", "--out", str(trace)])
    assert code == 0
    assert trace.exists()
    assert "success" in capsys.readouterr().out


def test_probe_llm_against_mock(monkeypatch, capsys):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    with MockChatServer(["```\nexplore_global()\n```"]) as server:
        code = main(["probe-llm", "--llm-url", server.base_url])
    assert code == 0
    assert "explore_global()" in capsys.readouterr().out


def test_probe_llm_unreachable_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("COME_LLM_API_KEY", "test-key")
    code = main(["probe-llm", "--llm-url", "http://127.0.0.1:9", "--timeout-secs", "0.5"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_task_exits_2(tiny_suite, capsys):
    _, suite_path = tiny_suite
    code = main(["trial", "--suite", str(suite_path), "--task", "Z9"])
    assert code == 2


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_a_parallel_count_below_one_exits_2(tiny_suite, tmp_path, capsys, parallel):
    _, suite_path = tiny_suite
    out = tmp_path / "out"
    code = main(["run", "--suite", str(suite_path), "--parallel", parallel, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: [config] parallel: ")
    assert not out.exists()


def test_a_negative_trial_index_exits_2(tiny_suite, tmp_path, capsys):
    # a negative index would wrap onto the task's last seed
    _, suite_path = tiny_suite
    trace = tmp_path / "trial.jsonl"
    code = main(["trial", "--suite", str(suite_path), "--task", "T1", "--trial-index", "-1", "--out", str(trace)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [config] trial_index: ")
    assert captured.out == ""
    assert not trace.exists()


def test_strict_escalation_after_a_flipped_flag_ends_without_a_traceback(capsys):
    code = main(["trial", "--suite", "builtin:benchmark", "--task", "A2", "--trial-index", "4", "--seed", "2",
                 "--strict-escalation", "--noise-profile", json.dumps({"p_flag_error": 0.3})])
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


MALFORMED_NOISE = [
    ("noise_profile", {"p_grasp_fial": 0.5}),
    ("noise_profile", {"p_grasp_fail": "x"}),
    ("noise_profile", {"p_grasp_fail": 1.5}),
    ("noise_profile", {"rng_seed": 3}),
    ("noise", {"p_grasp_fial": 0.5}),
    ("noise", {"p_grasp_fail": "x"}),
    ("noise", {"p_grasp_fail": True}),
    ("noise", {"rng_seed": "a"}),
]


@pytest.mark.parametrize(
    "where, block",
    MALFORMED_NOISE,
    ids=[json.dumps(b) if w == "noise_profile" else f"scene:{json.dumps(b)}" for w, b in MALFORMED_NOISE],
)
def test_malformed_inline_noise_profile_exits_2(tiny_suite, capsys, where, block):
    # an inline --noise-profile and a scene file's noise block get the same check
    scene_path, suite_path = tiny_suite
    if where == "noise_profile":
        code = main(["trial", "--suite", str(suite_path), "--task", "T1", "--noise-profile", json.dumps(block)])
    else:
        scene = json.loads(scene_path.read_text())
        scene_path.write_text(json.dumps({**scene, "noise": block}))
        code = main(["validate", "--scene", str(scene_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: [config] {where}.")


def _set_scene_field(scene, path, value):
    parent = scene
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


TOY = {"id": "toy_0", "category": "toy", "on": "table_0", "offset": [0.3, -0.1]}
CUP = {"id": "cup_0", "category": "cup", "on": "table_0", "offset": [-0.3, 0.1]}
PLATE = {"id": "plate_0", "category": "plate", "on": "table_0", "offset": [0.0, 0.0],
         "receptacle": True, "extent": [0.2, 0.2]}

MALFORMED_SCENES = [
    (("room",), 5, "room"),
    (("furniture",), 5, "furniture"),
    (("objects",), [5], "objects[0]"),
    (("variation",), 5, "variation"),
    (("furniture", 0, "footprint", 0), [0], "furniture[0].footprint[0]"),
    (("objects", 0, "offset"), [0.1, 0.2, 0.3], "objects[0].offset"),
    (("objects", 0, "on"), ["table_0"], "objects[0].on"),
    (("variation", "extra_count_range"), {"toy": [2, 1]}, "variation.extra_count_range.toy"),
    (("variation", "receptacle_pool"), {"toy": []}, "variation.receptacle_pool.toy"),
    (("variation", "receptacle_pool"), {"toy": ["nope_0"]}, "variation.receptacle_pool.toy"),
    (("variation", "receptacle_pool"), {"toy": [5]}, "variation.receptacle_pool.toy"),
    # variations whose clone ids, re-dealt offsets or clone count would crash
    # every trial; an empty path sets several top-level fields at once
    ((), {"objects": [TOY, dict(CUP, id="cup_v0"), CUP], "variation": {"extra_count_range": {"cup": [1, 1]}}},
     "variation.extra_count_range.cup"),
    ((), {"objects": [TOY, CUP, PLATE], "variation": {"receptacle_pool": {"cup": ["table_0", "plate_0"]}}},
     "variation.receptacle_pool.cup"),
    (("variation", "extra_count_range"), {"book": [0, 1000000000]}, "variation.extra_count_range.book"),
    # a base offset off its surface, and a surface too narrow for a shuffled offset
    ((), {"objects": [TOY, dict(CUP, offset=[5.0, 0.0])]}, "objects[1].offset"),
    ((), {"objects": [TOY, dict(PLATE, extent=[0.04, 0.04]), {"id": "cherry_0", "category": "fruit", "on": "plate_0"}],
          "variation": {"shuffle_offsets": True}}, "variation.shuffle_offsets"),
    # scenes that validated and then failed every trial: the robot starts on
    # table_0, the sense disk is the robot's own cell, a number is not finite,
    # two plates rest on each other, or the grid or the sense disk is huge
    (("robot_start",), {"x": 1.0, "y": 2.3}, "robot_start"),
    (("sensing_radius",), 0.05, "sensing_radius"),
    (("grid_resolution",), "nan", "grid_resolution"),
    (("robot_start", "x"), "nan", "robot_start.x"),
    (("room", "width"), "inf", "room.width"),
    (("sensing_radius",), "inf", "sensing_radius"),
    ((), {"objects": [TOY, dict(PLATE, id="plate_a", on="plate_b"), dict(PLATE, id="plate_b", on="plate_a")]},
     "objects[1].on"),
    (("room", "width"), 1e9, "room.width"),
    (("sensing_radius",), 1e9, "sensing_radius"),
    # a capture overflows squaring a huge distance, and a place onto a huge
    # plate scans its surface for ever
    (("view_radius",), 1e300, "view_radius"),
    (("robot_start", "x"), 1e300, "robot_start"),
    ((), {"objects": [TOY, {"id": "ball_0", "category": "ball", "floor": [1e300, 0.0]}]}, "objects[1].floor"),
    ((), {"objects": [TOY, dict(PLATE, extent=[1e9, 1e9])]}, "objects[1].extent"),
    # a clone count that int() would truncate
    (("variation", "extra_count_range"), {"toy": [0, 2.5]}, "variation.extra_count_range.toy[1]"),
    # strings and booleans that str() or bool() would convert
    (("name",), 5, "name"),
    (("furniture", 0, "id"), None, "furniture[0].id"),
    (("furniture", 0, "category"), 5, "furniture[0].category"),
    (("furniture", 0, "surface_height"), False, "furniture[0].surface_height"),
    (("objects", 0, "id"), None, "objects[0].id"),
    (("objects", 0, "category"), 5, "objects[0].category"),
    (("objects", 0, "attributes"), ["red", 5], "objects[0].attributes[1]"),
    (("objects", 0, "receptacle"), "false", "objects[0].receptacle"),
    # its own id: the narrow-surface case above already takes this field's name
    pytest.param(("variation", "shuffle_offsets"), "no", "variation.shuffle_offsets",
                 id="variation.shuffle_offsets-not-a-boolean"),
    # a key that no parser reads, in each kind of object
    (("grid_resolutoin",), 0.2, "grid_resolutoin"),
    (("room", "depth"), 3.0, "room.depth"),
    (("robot_start", "theta"), 0.0, "robot_start.theta"),
    (("furniture", 0, "grasp_dificulty"), {"north": 2.0}, "furniture[0].grasp_dificulty"),
    (("objects", 0, "atributes"), ["red"], "objects[0].atributes"),
    (("variation", "shuffle"), True, "variation.shuffle"),
]


@pytest.mark.parametrize("path, value, field", MALFORMED_SCENES, ids=[f for _, _, f in MALFORMED_SCENES])
def test_malformed_scene_exits_2_naming_the_field(tiny_suite, capsys, path, value, field):
    scene_path, _ = tiny_suite
    scene = json.loads(scene_path.read_text())
    scene["variation"] = {}
    if path:
        _set_scene_field(scene, path, value)
    else:
        scene.update(value)
    scene_path.write_text(json.dumps(scene))
    assert main(["validate", "--scene", str(scene_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: [config] {field}:")


MALFORMED_SUITES = [
    ({"tasks": [5]}, "tasks[0]"),
    ({"seeds": 5}, "tasks[0].seeds"),
    ({"seeds": ["x"]}, "tasks[0].seeds[0]"),
    ({"trials": "many"}, "tasks[0].trials"),
    ({"trials": 0}, "tasks[0].trials"),
    ({"step_cap": 0}, "tasks[0].step_cap"),
    ({"step_cap": -5}, "tasks[0].step_cap"),
    ({"tasks": []}, "tasks"),
    ({"scene": "builtin:nope"}, "tasks[0].scene"),
    ({"scene": "missing.json"}, "tasks[0].scene"),
    ({"goal": {"on": 5}}, "tasks[0].goal.on"),
    ({"goal": {"and": 5}}, "tasks[0].goal.and"),
    # a junction that can never hold, or that always does
    ({"goal": {"or": []}}, "tasks[0].goal.or"),
    ({"goal": {"and": []}}, "tasks[0].goal.and"),
    ({"goal": {"or": [{"holding": []}]}}, "tasks[0].goal.or[0].holding"),
    ({"placement_style": 5}, "tasks[0].placement_style"),
    ({"goal": {"on": {"object": {"id": 5}, "receptacle": {"id": "bed_0"}}}}, "tasks[0].goal.on.object.id"),
    ({"goal": {"holding": {"object": {"category": ["toy"]}}}}, "tasks[0].goal.holding.object.category"),
    ({"goal": {"on": {"object": {"id": None}, "receptacle": {"id": "bed_0"}}}}, "tasks[0].goal.on.object.id"),
    ({"goal": {"all_on": {"category": 5}}}, "tasks[0].goal.all_on.category"),
    ({"goal": {"same_receptacle": {"category": None}}}, "tasks[0].goal.same_receptacle.category"),
    ({"noise_profile": "bogus"}, "noise_profile"),
    ({"noise_profile": {"p_grasp_fail": 2}}, "noise_profile.p_grasp_fail"),
    # integer fields that int() would truncate or convert
    ({"trials": 2.7}, "tasks[0].trials"),
    ({"trials": True}, "tasks[0].trials"),
    ({"step_cap": True}, "tasks[0].step_cap"),
    ({"seeds": [0.9]}, "tasks[0].seeds[0]"),
    ({"seeds": ["7"]}, "tasks[0].seeds[0]"),
    # strings that str() would convert; a change naming a suite field goes to the suite
    ({"id": 5}, "tasks[0].id"),
    # a task's traces go to <out>/<task id>/: the id must be one directory name
    ({"id": ""}, "tasks[0].id"),
    ({"id": "."}, "tasks[0].id"),
    ({"id": ".."}, "tasks[0].id"),
    ({"id": "../escape"}, "tasks[0].id"),
    ({"id": "a/b"}, "tasks[0].id"),
    ({"id": "a\\b"}, "tasks[0].id"),
    ({"name": 5}, "tasks[0].name"),
    ({"instruction": 5}, "tasks[0].instruction"),
    ({"goal": {"holding": {"object": {"attributes": [5]}}}}, "tasks[0].goal.holding.object.attributes[0]"),
    ({"noise_profile": "zero", "name": 5}, "name"),
    ({"planner": 5}, "planner"),
    # only --planner chooses the planner
    ({"planner": "llm"}, "planner"),
    # a key that no parser reads, in each kind of object
    ({"noise_profile": "zero", "noise_profle": "default"}, "noise_profle"),
    ({"trails": 10}, "tasks[0].trails"),
    ({"goal": {"on": {"object": {"id": "toy_0"}, "receptacle": {"id": "bed_0"}, "recepticle": {}}}},
     "tasks[0].goal.on.recepticle"),
    ({"goal": {"on": {"object": {"ids": "toy_0"}, "receptacle": {"id": "bed_0"}}}}, "tasks[0].goal.on.object.ids"),
]
SUITE_FIELDS = {"tasks", "noise_profile", "planner"}  # the rest of a change goes to the first task


@pytest.mark.parametrize("change, field", MALFORMED_SUITES, ids=[json.dumps(c) for c, _ in MALFORMED_SUITES])
def test_malformed_suite_exits_2_naming_the_field(tiny_suite, capsys, change, field):
    _, suite_path = tiny_suite
    suite = json.loads(suite_path.read_text())
    if change.keys() & SUITE_FIELDS:
        suite.update(change)
    else:
        suite["tasks"][0].update(change)
    suite_path.write_text(json.dumps(suite))
    assert main(["validate", "--suite", str(suite_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: [config] {field}:")


def test_a_duplicate_task_id_exits_2(tiny_suite, capsys):
    # two tasks with one id would write their traces to one directory
    _, suite_path = tiny_suite
    suite = json.loads(suite_path.read_text())
    suite["tasks"].append(dict(suite["tasks"][0]))
    suite_path.write_text(json.dumps(suite))
    assert main(["validate", "--suite", str(suite_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [config] tasks[1].id: duplicate task id 'T1'")


MISSING_DOCUMENTS = [["--suite", "builtin:nope"], ["--suite", "no/such.json"], ["--scene", "no/such.json"]]


@pytest.mark.parametrize("args", MISSING_DOCUMENTS)
def test_missing_document_exits_2(capsys, args):
    assert main(["validate", *args]) == 2
    assert capsys.readouterr().err.startswith("error: [config] ")


def test_a_huge_trial_count_validates_without_listing_its_seeds(tiny_suite, capsys):
    # without "seeds", trial i runs seed i mod trials; no list of all trials' seeds is built
    _, suite_path = tiny_suite
    suite = json.loads(suite_path.read_text())
    suite["tasks"][0]["trials"] = 10**19
    suite_path.write_text(json.dumps(suite))
    assert main(["validate", "--suite", str(suite_path)]) == 0
    assert "suite ok" in capsys.readouterr().out
