"""Kept mutants: small breaks of ``src/homeloop`` that the tests must catch.

Each entry names a module under ``src/homeloop``, an exact source text that
occurs once in ``src/``, its replacement, and what must fail once the text is
replaced: pytest node ids, or ``tools/trace_digest.py``, whose lines must then
differ from the unmutated checkout's (or which must exit non-zero). ``named``
is the change that first named the mutant.

``tools/mutants.py`` applies the mutants one at a time to an exported
checkout and runs each one's tests. ``tests/test_mutants.py`` checks this
file without running anything: a refactor that moves a mutated line fails
tier-1, and the same change updates the entry.
"""

from __future__ import annotations

import os
from typing import NamedTuple

TRACE_DIGEST = "tools/trace_digest.py"


class Mutant(NamedTuple):
    name: str
    module: str  # relative to src/homeloop
    source: str
    replacement: str
    tests: tuple[str, ...]
    named: str


def occurrences(src: str, text: str) -> dict[str, int]:
    """The Python files under ``src`` that hold ``text``, as paths relative
    to ``src``, each with how often it does."""
    found = {}
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    count = fh.read().count(text)
                if count:
                    found[os.path.relpath(path, src)] = count
    return found


FREE_OFFSET_REFERENCE = "tests/test_world.py::test_free_offset_on_matches_the_probing_reference"
RASTERISER_REFERENCES = (
    "tests/test_geometry.py::test_rasterize_polygon_marks_what_point_in_polygon_marks",
    "tests/test_geometry.py::test_scanline_rasteriser_matches_the_numpy_one",
)
GOAL_REFERENCE = "tests/test_goals.py::test_goal_evaluation_matches_the_reference"
SCENE_EDITS = "tests/test_config.py::test_every_single_field_edit_of_a_bundled_scene_parses_as_pinned"
SCENE_CHECKS = "tests/test_config.py::test_a_repeated_id_or_a_bad_grasp_difficulty_is_refused"
RESUMED_SWEEP = (
    "tests/test_geometry.py::test_packed_sweep_matches_the_numpy_sweep",
    "tests/test_geometry.py::test_the_frontier_search_grows_the_scans_first_layers_and_meets_no_frontier_before_d",
    "tests/test_geometry.py::test_the_resumed_sweep_matches_the_two_search_sweep_on_generated_layouts",
)

MUTANTS = (
    # World.free_offset_on against its probing reference
    Mutant("free-offset-rows-at-reach", "world.py",
           "or abs(ry - py) > reach:", "or abs(ry - py) >= reach:",
           (FREE_OFFSET_REFERENCE,), "the free_offset_on row skip"),
    Mutant("free-offset-reach-inclusive", "world.py",
           "if math.hypot(rx - px, ry - py) > reach:", "if math.hypot(rx - px, ry - py) >= reach:",
           (FREE_OFFSET_REFERENCE,), "the free_offset_on row skip"),
    Mutant("free-offset-no-column-bound", "world.py",
           "if abs(ox) <= half_w - margin", "if True",
           (FREE_OFFSET_REFERENCE,), "the free_offset_on row skip"),
    Mutant("free-offset-no-off-surface-row-skip", "world.py",
           "if abs(oy) > half_h - margin or abs(ry - py)", "if abs(ry - py)",
           (FREE_OFFSET_REFERENCE,), "the free_offset_on row skip"),
    Mutant("free-offset-narrow-row-filter", "world.py",
           "if (py - qy) ** 2 < 0.1**2]", "if (py - qy) ** 2 < 0.0999**2]",
           (FREE_OFFSET_REFERENCE,), "the free_offset_on row skip"),
    # a transport failure makes the trial invalid whatever ground truth says
    Mutant("transport-follows-ground-truth", "harness.py",
           'if stop == "transport":', "if False:",
           ("tests/test_harness.py::test_every_way_a_trial_ends[transport-goal-held]",
            "tests/test_harness.py::test_every_way_a_trial_ends[transport-goal-not-held]"),
           "every way a trial ends"),
    # the scanline rasteriser against point_in_polygon
    Mutant("rasterise-bisect-right", "geometry.py",
           "left = bisect_left(xs, xi)", 'left = __import__("bisect").bisect_right(xs, xi)',
           RASTERISER_REFERENCES, "the scanline rasteriser"),
    Mutant("rasterise-no-on-edge", "geometry.py",
           "1 << left if left < len(xs) and abs(xs[left] - xi) < 1e-12 else 0", "0",
           RASTERISER_REFERENCES, "the scanline rasteriser"),
    Mutant("rasterise-guard-bit", "geometry.py",
           "marked |= (odd | on_edge) << (cy * self.packed.row + c0x)",
           "marked |= (odd | on_edge | ((odd | on_edge) >> (self.width - 1 - c0x) & 1) << (self.width - c0x))"
           " << (cy * self.packed.row + c0x)",
           RASTERISER_REFERENCES
           + ("tests/test_geometry.py::test_footprint_masks_are_the_point_in_polygon_cells_on_the_grid_and_disjoint",),
           "footprints as packed masks"),
    # approach cells are reachable ones
    Mutant("approach-cells-unreachable", "world.py",
           "adjacent_free_cells(self.footprint_cells[furniture_id]) & self.reachable",
           "adjacent_free_cells(self.footprint_cells[furniture_id])",
           ("tests/test_world.py::test_approach_table_matches_per_call_reference",),
           "one placement and view rule"),
    # replay re-derives a verdict's explanation from the feedback message
    Mutant("replay-drops-the-message", "harness.py",
           "message=message,\n        details=details,", 'message="",\n        details=details,',
           (TRACE_DIGEST,), "readers that refuse bad traces"),
    # the frontier search resumes from the sensing scan's layer d
    Mutant("resume-one-layer-late", "perception.py",
           "depth = math.isqrt(radius * radius // 2)", "depth = math.isqrt(radius * radius // 2) + 1",
           RESUMED_SWEEP, "the resumed frontier search"),
    Mutant("resume-at-the-radius", "perception.py",
           "depth = math.isqrt(radius * radius // 2)", "depth = radius",
           RESUMED_SWEEP, "the resumed frontier search"),
    # a new layout's geometry: the sensing scan on the disk's rows, a
    # vertical edge's crossing placed once, the reached cells read off the
    # unreached ones
    Mutant("sense-band-one-row-off", "perception.py",
           "lo = max(0, origin[1] - radius) * packed.row", "lo = max(0, origin[1] - radius + 1) * packed.row",
           ("tests/test_geometry.py::test_sense_marks_what_the_queue_scan_marked",
            "tests/test_geometry.py::test_the_banded_sense_matches_the_unbanded_scan_near_every_grid_edge"),
           "a new layout's geometry at less cost"),
    Mutant("rasterise-vertical-no-on-edge", "geometry.py",
           "_crossing(xs, x0) if x0 == x1 else None", "(_crossing(xs, x0)[0], 0) if x0 == x1 else None",
           RASTERISER_REFERENCES, "a new layout's geometry at less cost"),
    Mutant("reach-returns-passable", "geometry.py",
           "return passable ^ unreached, kept", "return passable, kept",
           ("tests/test_geometry.py::test_flood_fill_matches_reference_bfs",
            "tests/test_geometry.py::test_reach_and_nearest_match_the_layers_generator"),
           "a new layout's geometry at less cost"),
    # the held object: World.gripper alone
    Mutant("held-object-in-view", "perception.py",
           "if oid == world.gripper:", "if False:",
           ("tests/test_perception.py::test_capture_excludes_gripper_contents",),
           "the held object kept once"),
    Mutant("held-object-digested-as-floor", "world.py",
           'else "gripper" if oid == self.gripper else "floor"', 'else "floor"',
           ("tests/test_world.py::test_state_digest_entries",),
           "the held object kept once"),
    Mutant("failed-place-object-only-if-moved", "recovery.py",
           "object_id = fb.moved or ctx.belief.holding", "object_id = fb.moved",
           ("tests/test_skills.py::test_a_place_refused_before_it_moved_anything_recovers_the_held_object",),
           "the held object kept once"),
    # goal evaluation: each node finds its own first unsatisfied atom, and
    # the held entity rests on nothing
    Mutant("held-object-keeps-its-parent", "goals.py",
           "return e.parent_id if e.id != self.holding else None", "return e.parent_id",
           ("tests/test_goals.py::test_the_held_object_is_not_on_its_last_seen_parent", GOAL_REFERENCE,
            "tests/test_trace_digest.py::test_ablation_trace_digest_is_unchanged[flags]", TRACE_DIGEST),
           "goal evaluation stated once"),
    Mutant("or-needs-every-child", "goals.py",
           "if any(c.satisfied(view) for c in self.children):", "if all(c.satisfied(view) for c in self.children):",
           (GOAL_REFERENCE,), "goal evaluation stated once"),
    Mutant("not-inverted", "goals.py",
           "return self if self.child.satisfied(view) else None",
           "return self if not self.child.satisfied(view) else None",
           (GOAL_REFERENCE,), "goal evaluation stated once"),
    # an uninspected object may still carry the attributes a selector needs
    Mutant("uninspected-never-admitted", "verification.py",
           "b.attributes if b.inspected else sel.attributes", "b.attributes",
           ("tests/test_planning.py::test_every_policy_branch_keeps_its_step[uninspected-candidate-at]",
            "tests/test_harness.py::test_prepare_cup_requires_closeups"),
           "goal evaluation stated once"),
    # scene documents: each field read by its reader, numbers only from JSON numbers
    Mutant("required-field-left-to-the-dataclass", "config.py",
           "for key, read in readers.items() if key in raw or key in required",
           "for key, read in readers.items() if key in raw",
           (SCENE_EDITS + "[place_fruit]",
            "tests/test_config.py::test_the_first_of_two_scene_problems_is_named[room-before-name]"),
           "each scene field stated once"),
    Mutant("wall-refused", "config.py",
           '"surface_height": _optional(_json(str)),', '"surface_height": _json(str),',
           (SCENE_EDITS + "[gather_cups]", "tests/test_config_fuzz.py::test_every_workload_scene_validates"),
           "each scene field stated once"),
    Mutant("number-from-a-string", "errors.py",
           "    if isinstance(value, (int, float)) and not isinstance(value, bool):",
           "    if isinstance(value, str):\n        value = float(value)\n"
           "    if isinstance(value, (int, float)) and not isinstance(value, bool):",
           ("tests/test_config.py::test_a_scene_number_is_a_json_number_never_a_string_or_a_boolean[room-width-string]",
            "tests/test_cli.py::test_replay_of_a_verdict_whose_pose_is_strings_exits_2"),
           "each scene field stated once"),
    # checks no bundled scene or written trace fires
    Mutant("furniture-id-repeats", "config.py",
           "if f.id in seen_f:", "if False:",
           (SCENE_CHECKS + "[furniture-id-repeats]",), "the streamed trace writer"),
    Mutant("object-id-repeats", "config.py",
           "if o.id in seen_o or o.id in seen_f:", "if o.id in seen_f:",
           (SCENE_CHECKS + "[object-id-repeats]",), "the streamed trace writer"),
    Mutant("object-id-names-furniture", "config.py",
           "if o.id in seen_o or o.id in seen_f:", "if o.id in seen_o:",
           (SCENE_CHECKS + "[object-id-names-furniture]",), "the streamed trace writer"),
    Mutant("grasp-side-unchecked", "config.py",
           "if side not in SIDES:", "if False:",
           (SCENE_CHECKS + "[grasp-side-unknown]",), "the streamed trace writer"),
    Mutant("grasp-multiplier-negative", "config.py",
           "if mult < 0:", "if False:",
           (SCENE_CHECKS + "[grasp-multiplier-negative]",), "the streamed trace writer"),
    Mutant("recovered-above-replanned", "trace.py",
           "if self.recovered_executions > self.replanned_executions:", "if False:",
           ("tests/test_harness.py::test_more_recovered_than_replanned_records_break_an_identity",),
           "the streamed trace writer"),
    Mutant("footer-counter-unchecked", "trace.py",
           "if counters.get(key) != getattr(report, key):", "if False:",
           tuple(f"tests/test_harness.py::test_a_footer_counter_that_does_not_match_the_records_is_a_format_error[{key}]"
                 for key in ("replanned_executions", "recovered_executions", "direct_failures")),
           "the streamed trace writer"),
    # a success status other than 200 carries no completion
    Mutant("any-status-answers", "planning/adapter.py",
           "if status != 200:", "if False:",
           ("tests/test_adapter.py::test_an_accepted_or_late_reply_yields_infrastructure_invalid[http-202]",),
           "the standard-library chat backend"),
    # checks that only a hand-made record, trace or number fires
    Mutant("failures-not-replanned-plus-direct", "trace.py",
           "if total != self.replanned_executions + self.direct_failures:", "if False:",
           ("tests/test_harness.py::test_a_record_neither_replanned_nor_direct_breaks_an_identity",),
           "every line run in a test"),
    Mutant("recovery-level-unchecked", "verification.py",
           "if self.recovery_level not in LEVELS:", "if False:",
           ("tests/test_verification.py::test_an_unknown_recovery_level_is_refused",),
           "every line run in a test"),
    Mutant("replay-verdict-flag-unchecked", "harness.py",
           'if not all(isinstance(event[key], bool) for key in ("success", "feedback_flag", "delta_consistent")):',
           "if False:",
           ("tests/test_harness.py::test_replay_names_a_verdict_it_cannot_rederive[string-flag]",),
           "every line run in a test"),
    Mutant("replay-feedback-unchecked", "harness.py",
           "if not isinstance(message, str):", "if False:",
           ("tests/test_harness.py::test_replay_names_a_verdict_it_cannot_rederive[no-feedback]",),
           "every line run in a test"),
    Mutant("number-overflow-escapes", "errors.py",
           "except OverflowError:", "except ZeroDivisionError:",
           ("tests/test_config.py::test_a_scene_number_is_a_json_number_never_a_string_or_a_boolean"
            "[room-width-beyond-float]",),
           "every line run in a test"),
)
