"""Print one SHA-256 digest of the traces and reports each suite or workload
writes, and of the event logs of random ``dispatch`` sequences.

    python3 tools/trace_digest.py

Run it from the root of a checkout; it imports homeloop from that checkout's
``src`` and the workloads from its ``perfbench``. It runs:

- both bundled suites at base seed 3, as ``tests/test_trace_digest.py`` does;
- the ``bundled`` (1 unit), ``apartments`` and ``long_horizon`` (3 units
  each) workloads at seeds 21 and 22;
- for ``long_horizon``, also every message list the chat adapter sends,
  recorded by a wrapper around ``ScriptedChatBackend.complete``. Traces hold
  no prompt text, so this line is what shows a change to the prompts;
- 50 seeded random ``dispatch`` sequences of 60 requests on each of the nine
  bundled scenes with noise on, at seeds 21 and 22: the event logs and the
  final ``state_digest()`` of each. They reach refusals that no suite run
  reaches, and use homeloop alone.

Each line is ``<name> <seed> <sha256>``. Two commits that print the same lines
write byte-identical traces and reports for those trials, and the same event
logs for those requests. ``run_meta.json`` holds a timestamp and is left out.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import sys
import tempfile
from importlib import resources
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from homeloop.harness import load_builtin_suite, make_planner_factory, run_suite  # noqa: E402
from homeloop.perception import Belief  # noqa: E402
from homeloop.skills import ActionRequest, SkillContext, dispatch  # noqa: E402
from homeloop.world import ALL_VERBS, SIDES, World, parse_config  # noqa: E402
from perfbench.workloads import WORKLOADS, ScriptedChatBackend  # noqa: E402

SUITES_BASE_SEED = 3
WORKLOAD_SEEDS = (21, 22)
UNITS = {"bundled": 1, "apartments": 3, "long_horizon": 3}
SCENES = ("bedroom", "fruit_among_cups", "gather_cups", "move_cup_and_toy", "move_toy",
          "place_fruit", "prepare_cup", "tidy_table", "transfer_all_toys")
SEQUENCES_PER_SCENE = 50
REQUESTS_PER_SEQUENCE = 60
NOISE = {"p_grasp_fail": 0.3, "p_place_fail": 0.3, "p_nav_fail": 0.1, "p_false_positive": 0.3,
         "p_missed_detection": 0.2, "p_object_shift_on_fail": 0.5, "p_flag_error": 0.1, "p_closeup_error": 0.1}


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run_meta.json"):
        h.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def suites_digest(out: Path) -> str:
    for name in ("acceptance", "benchmark"):
        run_suite(load_builtin_suite(name), make_planner_factory("scripted"),
                  out_dir=str(out / name), base_seed=SUITES_BASE_SEED)
    return digest(out)


def workload_digest(name: str, seed: int, out: Path) -> str:
    workload = WORKLOADS[name]
    factory = workload.planner_factory()
    for unit in range(UNITS[name]):
        for suite, base in workload.load(workload.docs(seed, unit), seed, unit):
            run_suite(suite, factory, out_dir=str(out / f"u{unit}" / suite.name), base_seed=base)
    return digest(out)


@contextlib.contextmanager
def recorded_prompts():
    """Yield a SHA-256 that every message list sent to a
    ``ScriptedChatBackend`` updates, in the order they are sent."""
    h = hashlib.sha256()
    original = ScriptedChatBackend.complete

    def complete(self, messages):
        h.update(json.dumps(messages, sort_keys=True).encode("utf-8") + b"\n")
        return original(self, messages)

    ScriptedChatBackend.complete = complete
    try:
        yield h
    finally:
        ScriptedChatBackend.complete = original


def next_verb(ctx: SkillContext) -> str:
    """The verb a fetch-and-place planner would call next."""
    belief = ctx.belief
    if belief.global_map is None:
        return "explore_global"
    if belief.holding is not None:
        return "place" if belief.at_receptacle else "navigate"
    if belief.at_receptacle is None:
        return "navigate"
    lmap = belief.local_maps.get(belief.at_receptacle)
    return "grasp" if lmap is not None and lmap.items and not lmap.stale else "explore_local"


def random_request(ctx: SkillContext, rng: random.Random) -> ActionRequest:
    """Half the time the step a planner would take next, otherwise any verb
    (or an unknown one) with any target; one request in eight is a string
    literal."""
    world, belief = ctx.world, ctx.belief
    furniture = sorted(world.furniture)
    ids = furniture + sorted(world.objects) + sorted(world.phantoms) + ["moon"]
    targets = ids + ["stay", "rest", None]
    if rng.random() < 0.5:
        verb = next_verb(ctx)
        if verb == "navigate":
            targets = furniture
        elif verb == "grasp":
            targets = [o.id for o in belief.local_maps[belief.at_receptacle].items]
        elif verb != "explore_global":
            targets = [belief.at_receptacle]
    else:
        verb = rng.choice(ALL_VERBS + ("fly",))
    location = None
    if verb == "place" and rng.random() < 0.5:
        location = (rng.choice(ids), (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
    return ActionRequest(
        verb=verb,
        target=rng.choice(targets),
        location=location,
        side=rng.choice((None,) + SIDES),
        params={"string_literal": True} if rng.random() < 0.125 else {},
    )


def dispatch_digest(seed: int) -> str:
    """Each sequence gets its own RNG, seeded from the seed, scene and
    sequence number, which also draws the world's noise seed."""
    h = hashlib.sha256()
    for name in SCENES:
        raw = json.loads(resources.files("homeloop").joinpath(f"data/scenes/{name}.json").read_text("utf-8"))
        for n in range(SEQUENCES_PER_SCENE):
            rng = random.Random(f"{seed}/{name}/{n}")
            raw["noise"] = dict(NOISE, rng_seed=rng.randrange(2**32))
            ctx = SkillContext(World(parse_config(raw)), Belief())
            for _ in range(REQUESTS_PER_SEQUENCE):
                dispatch(ctx, random_request(ctx, rng))
            h.update(json.dumps(ctx.events, sort_keys=True).encode("utf-8"))
            h.update(ctx.world.state_digest().encode("ascii"))
    return h.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        print(f"suites {SUITES_BASE_SEED} {suites_digest(Path(tmp) / 'suites')}", flush=True)
        for name in UNITS:
            for seed in WORKLOAD_SEEDS:
                with recorded_prompts() as prompts:
                    print(f"{name} {seed} {workload_digest(name, seed, Path(tmp) / f'{name}-{seed}')}", flush=True)
                if name == "long_horizon":
                    print(f"long_horizon-prompts {seed} {prompts.hexdigest()}", flush=True)
    for seed in WORKLOAD_SEEDS:
        print(f"dispatch {seed} {dispatch_digest(seed)}", flush=True)


if __name__ == "__main__":
    main()
