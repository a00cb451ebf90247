"""Host-speed reference for the benchmark's times.

On a shared host the same trial can take 1.7 times as long in one minute as
in the next, and CPU time follows wall time, so neither clock alone gives
figures that two sets of runs can agree on. The benchmark therefore runs a
fixed reference kernel between trials (outside their timing) and scales each
measured time by ``REFERENCE_MS`` over the kernel's median time around it
(the run samples the kernel once before every trial).
A reported time then reads as the wall time the same work takes when the
kernel takes ``REFERENCE_MS``. The kernel is plain Python of the same kind as
homeloop's hot loops (a grid BFS over dicts, tuples and a deque) and shares
no code with homeloop, so a change to homeloop moves the scaled figures
exactly as much as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections import deque

REFERENCE_MS = 2.3  # about the kernel's time on an idle core of the machine the README figures come from
WINDOW = 10  # samples nearest in time that scale one measurement

# Set-up is a different kind of work (interpreter start, imports, parsing),
# which the kernel tracks poorly. A set-up time is scaled instead by a fresh
# interpreter that imports homeloop's two third-party dependencies and nothing
# of homeloop, timed just before it.
REFERENCE_IMPORT = "import numpy, requests; print('ready', flush=True)"
REFERENCE_IMPORT_S = 0.3  # about that process's time to ready on the same machine


def kernel() -> int:
    """8-connected BFS over a 40 x 40 grid with one wall; fixed work."""
    size = 40
    blocked = {(x, size // 2) for x in range(4, size - 4)}
    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        cell = queue.popleft()
        d = dist[cell] + 1
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)):
            n = (cell[0] + dx, cell[1] + dy)
            if 0 <= n[0] < size and 0 <= n[1] < size and n not in blocked and n not in dist:
                dist[n] = d
                queue.append(n)
    return len(dist)


class Pace:
    """Kernel samples taken during a run: when each ended, and how long it took."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.seconds.append(end - start)

    def scale_at(self, when: float) -> float:
        """``REFERENCE_MS`` over the median of the ``WINDOW`` samples nearest
        in time to ``when``."""
        i = bisect.bisect_left(self.times, when)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        window = self.seconds[lo : lo + WINDOW]
        return REFERENCE_MS / 1000.0 / statistics.median(window)

    def scale_between(self, start: float, end: float) -> float:
        """``REFERENCE_MS`` over the median of the samples taken in
        ``[start, end]``, or of those nearest its middle when it holds fewer
        than ``WINDOW``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < WINDOW:
            return self.scale_at((start + end) / 2)
        return REFERENCE_MS / 1000.0 / statistics.median(self.seconds[lo:hi])
