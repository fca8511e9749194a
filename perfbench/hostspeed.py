"""Host speed sampler, so that timings survive the speed swings of a shared host.

On a shared 2-CPU machine the same job's time drifts by up to 1.8x over
minutes, because other tenants slow the CPU. Process CPU time drifts with
it, so it does not help. A daemon thread therefore wakes every `PERIOD`
seconds and times a fixed pure-Python task: three Dijkstra runs on a fixed
12x12 grid, the same kind of work as the library's. A job's time at the
reference speed is its own time, less the samples taken inside it, scaled
by `REFERENCE_S` over the mean sample inside it. The slowest tenth of the
samples is dropped first, since the OS sometimes preempts a sample.

The process is pinned to the CPU it is running on, so that the sampler
measures the CPU that the job runs on; a woken thread would otherwise often
go to the idle one. The sampler takes about 1% of the time. It cannot see
another process time-sharing the same CPU, so run one benchmark at a time.
"""

from __future__ import annotations

import os
import threading
from array import array
from time import perf_counter

import check

PERIOD = 0.025
# One sample's duration at the reference speed: its median in a fast spell of
# a shared 2-CPU x86-64 VM with CPython 3.11.
REFERENCE_S = 0.00022
NEAREST = 10  # samples used for an interval too short to hold enough of its own


def _current_cpu() -> int:
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    except (OSError, ValueError, IndexError):
        return min(allowed)
    return cpu if cpu in allowed else min(allowed)


def _task_adjacency():
    side = 12
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, 1.0 + (v * 7919 % 13) / 4.0))
            if r + 1 < side:
                edges.append((v, v + side, 1.0 + (v * 104729 % 11) / 4.0))
    return check.adjacency(side * side, edges)


class HostSpeed:
    """Samples the host speed from a background thread between start and stop."""

    def __init__(self) -> None:
        # Flat arrays rather than a list of tuples: small objects kept alive
        # between the job's allocations would fragment memory and raise the
        # peak RSS that the benchmark reports.
        self.starts = array("d")
        self.durations = array("d")
        self._adj = _task_adjacency()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        t0 = perf_counter()
        for src in (0, 77, 143):
            check.dijkstra(self._adj, src)
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    def burst(self, count: int) -> None:
        """Samples taken inline, around intervals too short for the thread."""
        for _ in range(count):
            self.sample()

    def start(self) -> None:
        os.sched_setaffinity(0, {_current_cpu()})
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD):
            self.sample()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def reference_seconds(self, t0: float, t1: float, excluded: float = 0.0) -> float:
        """Seconds at the reference speed for the interval [t0, t1].

        `excluded` is time inside the interval that was not the job's own.
        """
        samples = list(zip(self.starts, self.durations))
        inside = [d for s, d in samples if t0 <= s and s + d <= t1]
        own = t1 - t0 - excluded - sum(inside)
        if len(inside) < NEAREST:
            mid = (t0 + t1) / 2
            nearest = sorted(samples, key=lambda sd: abs(sd[0] + sd[1] / 2 - mid))
            inside = [d for _, d in nearest[:NEAREST]]
        inside.sort()
        kept = inside[: max(1, len(inside) - len(inside) // 10)]
        return own * REFERENCE_S * len(kept) / sum(kept)
