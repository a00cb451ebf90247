"""What a fresh ``import homeloop`` loads.

The HTTP stack (``requests``, ``urllib3``, ``ssl``), ``hashlib`` (OpenSSL's
libcrypto) and ``concurrent.futures`` each load on first use, so scripted,
transcript and benchmark runs never pay for them. ``numpy`` never loads:
the grid is packed ints, and a scripted trial runs without it. Other tests
import ``requests`` and ``numpy`` in-process, so the check runs in a fresh
interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys

DEFERRED = ("requests", "urllib3", "ssl", "hashlib", "concurrent.futures", "numpy")

_PROBE = f"""
import os, sys
import homeloop, homeloop.cli
loaded = [name for name in {DEFERRED!r} if name in sys.modules]
assert not loaded, f"loaded at import: {{loaded}}"

from homeloop.config import load_builtin_suite, resolve_noise_profile
from homeloop.harness import TrialOptions, run_trial
from homeloop.planning import ScriptedPlanner

suite = load_builtin_suite("acceptance")
options = TrialOptions(noise=resolve_noise_profile(suite.noise_profile))
report = run_trial(suite.tasks[0], ScriptedPlanner(), seed=0, options=options)
assert report.execution_steps > 0, "the trial ran no step"
assert "numpy" not in sys.modules, "a scripted trial loaded numpy"

from homeloop.perception import Belief
from homeloop.planning import Call, ChatModelPlanner, DialogueHistory, HttpChatBackend, PlannerView
from mock_llm import MockChatServer

os.environ["COME_LLM_API_KEY"] = "test-key"
with MockChatServer(["```\\nexplore_global()\\n```"]) as server:
    planner = ChatModelPlanner(HttpChatBackend(base_url=server.base_url))
    step = planner.next_step(None, DialogueHistory(instruction="tidy up"), PlannerView(belief=Belief()))
assert step == Call("explore_global", None), step
assert "requests" in sys.modules
print("ok")
"""


def test_import_defers_the_http_stack_hashlib_and_thread_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
