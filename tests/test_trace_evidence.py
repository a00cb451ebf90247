"""Verdict evidence restricted to what the verdict reads moves no behaviour.

A ``homeloop-trace@2`` verdict keeps in ``before``/``after`` only the objects
``verify_success`` reads; an ``@1`` verdict held every object in view. With
``capture`` patched to ignore its ids (full views) and an ``@1`` header, the
bundled suites write the traces the full-view code wrote, byte for byte:
``V1_SHA256`` is the golden digest before evidence was restricted. ``to_v2``,
a pure function of one trace, maps each of those traces onto the trace of a
normal run, and every report is the same. Together these show that only the
dropped objects changed, so re-recording ``GOLDEN_SHA256`` once was safe.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from homeloop import harness, recovery, trace
from homeloop.cli import main
from homeloop.errors import TraceFormatError
from homeloop.config import load_builtin_suite
from homeloop.harness import make_planner_factory, replay_matches, replay_verdicts, run_suite
from homeloop.perception import capture
from homeloop.trace import load_trace, load_trace_file

BASE_SEED = 3
V1_SCHEMA = "homeloop-trace@1"
V1_SHA256 = "4a8784daab1c8f700b4688b2c38d77035df5f0db001ed8238784e56e6cf81f6a"


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def to_v2(text: str) -> str:
    """Map an @1 trace onto @2: the header names @2, and each verdict's
    before/after keeps only the objects its rule reads (a grasp's target
    before and after, a place's placed or dropped object after)."""
    lines = []
    for n, line in enumerate(text.splitlines()):
        doc = json.loads(line)
        if n == 0:
            assert doc["schema"] == V1_SCHEMA
            doc["schema"] = "homeloop-trace@2"
        elif doc.get("event") == "verdict":
            if doc["verb"] == "grasp":
                before = after = {doc["target"]}
            elif doc["verb"] == "place":
                before, after = set(), {doc["placed"], doc["dropped"]}
            else:
                before = after = set()
            for key, ids in (("before", before), ("after", after)):
                doc[key]["visible"] = [o for o in doc[key]["visible"] if o["id"] in ids]
        lines.append(_dump(doc) + "\n")
    return "".join(lines)


def _full_view(world, kind="stay", ids=None):
    return capture(world, kind)


def _run_suites(out) -> dict[str, str]:
    """Both bundled suites at the base seed; every file written but the
    timestamped ``run_meta.json``, by path relative to ``out``."""
    for name in ("acceptance", "benchmark"):
        run_suite(load_builtin_suite(name), make_planner_factory("scripted"),
                  out_dir=str(out / name), base_seed=BASE_SEED)
    return {
        path.relative_to(out).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(out.rglob("*")) if path.is_file() and path.name != "run_meta.json"
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(files written with full views and an @1 header, files of a normal run)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "SCHEMA", V1_SCHEMA)
        mp.setattr(harness, "capture", _full_view)
        mp.setattr(recovery, "capture", _full_view)
        full = _run_suites(tmp_path_factory.mktemp("v1"))
    return full, _run_suites(tmp_path_factory.mktemp("v2"))


def test_full_views_write_the_v1_golden_traces(runs):
    h = hashlib.sha256()
    for rel, text in runs[0].items():
        if rel.endswith(".jsonl"):
            h.update(rel.encode("utf-8") + b"\0" + text.encode("utf-8"))
    assert h.hexdigest() == V1_SHA256


def test_converter_maps_every_v1_trace_onto_the_v2_trace(runs):
    full, slim = runs
    assert sorted(full) == sorted(slim)
    traces = [rel for rel in full if rel.endswith(".jsonl")]
    assert len(traces) == 100
    for rel in traces:
        assert to_v2(full[rel]) == slim[rel], rel
    for rel in set(full) - set(traces):
        assert full[rel] == slim[rel], rel


def test_v2_verdicts_hold_only_their_evidence_and_replay_as_v1_did(runs):
    full, slim = runs
    dropped = 0
    for rel, text in slim.items():
        if not rel.endswith(".jsonl"):
            continue
        v1, v2 = load_trace(io.StringIO(full[rel])), load_trace(io.StringIO(text))
        assert [v for _, v in replay_verdicts(v1)] == [v for _, v in replay_verdicts(v2)]
        for old, new in zip(v1.events, v2.events):
            if new["event"] == "verdict":
                dropped += len(old["before"]["visible"]) - len(new["before"]["visible"])
                if new["verb"] not in ("grasp", "place"):
                    assert new["before"]["visible"] == new["after"]["visible"] == []
    assert dropped > 0


def test_v1_trace_still_loads_and_replays(runs, tmp_path, capsys):
    rel = next(r for r, text in runs[0].items() if r.endswith(".jsonl") and '"verb":"place"' in text)
    path = tmp_path / "v1.jsonl"
    path.write_text(runs[0][rel], encoding="utf-8")
    report = load_trace_file(str(path))
    assert any(e["event"] == "verdict" and e["before"]["visible"] for e in report.events)
    assert replay_matches(report)
    assert main(["replay", "--trace", str(path)]) == 0
    assert "replay ok" in capsys.readouterr().out


def test_unknown_schema_is_refused(runs):
    text = next(t for r, t in runs[1].items() if r.endswith(".jsonl"))
    with pytest.raises(TraceFormatError, match="unknown schema"):
        load_trace(io.StringIO(text.replace("homeloop-trace@2", "homeloop-trace@3", 1)))
