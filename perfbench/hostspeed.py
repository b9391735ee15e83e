"""Host-speed reference for the benchmark's real-time metrics.

On a shared 2-core VM the same episode's time varied up to 3x within a
run and its median drifted 35-45% between runs minutes apart, while its
wall time stayed equal to its CPU time: the host does not take the CPU
away, it runs this process's instructions at a varying speed.  A fixed
pure-Python kernel slows down with it, so :class:`HostClock` times that
kernel *inside* the timed window: a ``SIGPROF`` interval timer interrupts
the process every ``PERIOD_S`` of CPU time and the handler runs the
kernel once and times it.  The timed code's own time (window minus kernel
runs) over the kernel's mean time is its cost in kernel runs, which no
longer depends on the host's speed at the moment; ``NOMINAL_KERNEL_S``
turns it back into seconds of a host on which one kernel run takes that
long.

The kernel touches only its own objects (a private graph and RNG), so the
interrupted program computes exactly what it would without it -- the
benchmark's digests check that.  Kernel runs are timed with
``perf_counter``: while an interval timer is armed, Linux reports process
CPU time in whole scheduler ticks (4 ms on the VM above), longer than a
kernel run.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

#: CPU seconds between kernel runs inside a timed window.
PERIOD_S = 0.04
#: Random-walk steps per kernel run (2.6-3.8 ms on the 2-core Xeon VM the
#: benchmark was sized on, under a tenth of a period).
KERNEL_STEPS = 2_000
#: A window shorter than a few periods gets topped up to this many runs.
MIN_RUNS = 5
#: Seconds one kernel run takes on the nominal host (about that VM's
#: median); normalised times are in seconds of that host.
NOMINAL_KERNEL_S = 0.003


class HostClock:
    """Context manager timing a window and the host's speed inside it."""

    def __init__(self) -> None:
        rng = random.Random(12345)
        n = 20_000
        self._adj = [[] for _ in range(n)]
        for v in range(n):
            for _ in range(5):
                u = rng.randrange(n)
                if u != v:
                    self._adj[v].append(u)
                    self._adj[u].append(v)
        self._rng = random.Random()
        self._runs_ns = []
        self._started = 0
        self._previous = None
        self.elapsed_s = 0.0  # the whole window, kernel runs included
        self.own_s = 0.0  # the window minus the kernel runs inside it

    def _kernel(self) -> int:
        """A fixed amount of dict, tuple, list and RNG work."""
        adj = self._adj
        rng = self._rng
        rng.seed(7)
        seen = {}
        path = []
        v = 0
        for i in range(KERNEL_STEPS):
            nbrs = adj[v]
            u = nbrs[rng.randrange(len(nbrs))]
            key = (v, u)
            seen[key] = seen.get(key, 0) + 1
            if len(nbrs) < len(adj[u]) or rng.random() < 0.5:
                v = u
            path.append((v, i))
        return len(seen) + len(path)

    def _tick(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not kernel work
        started = time.perf_counter_ns()
        self._kernel()
        self._runs_ns.append(time.perf_counter_ns() - started)
        if collecting:
            gc.enable()

    def __enter__(self) -> "HostClock":
        self._runs_ns = []
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        self._started = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        elapsed_ns = time.perf_counter_ns() - self._started
        signal.signal(signal.SIGPROF, self._previous)
        self.elapsed_s = elapsed_ns / 1e9
        self.own_s = (elapsed_ns - sum(self._runs_ns)) / 1e9
        if exc[0] is None:
            while len(self._runs_ns) < MIN_RUNS:
                self._tick()
        return False

    @property
    def kernel_s(self) -> float:
        """Mean time of one kernel run in (or just after) the last window."""
        return statistics.fmean(self._runs_ns) / 1e9

    @property
    def nominal_s(self) -> float:
        """The last window's own time in seconds of the nominal host."""
        return self.own_s * NOMINAL_KERNEL_S / self.kernel_s
