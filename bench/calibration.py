"""Scaling measured times to a reference machine speed.

On a shared 2-vCPU VM the same fixed pure-Python loop takes about 1.5 ms
at one moment and about 2.5 ms the next, and the two vCPUs are often in
different states; the IQR of raw times of identical benchmark runs
reached half their median.  So the benchmark keeps its processes on one CPU (run.py)
and, while it measures, samples that CPU's speed with a fixed calibration
chunk that runs no massdual code.  A measured interval is reported as

    (its seconds minus the chunks run inside it)
        * reference chunk seconds / mean seconds of the chunks inside
                                    and next to it,

that is, as its seconds on a machine on which a chunk takes the reference
time.  A change to massdual moves the measured seconds and not the chunks;
a slower or busier CPU moves both and cancels out.

Work in this process is sampled with a pure-Python chunk, between items
and every PERIOD_S while they run (SIGALRM, main thread only), so that long
items are sampled while they run.  Work in child processes (set-up probes
and cli requests) is sampled with a bare interpreter start (`python -c
pass`, no massdual import) before and after each: it tracks the speed of
process start-up, which the pure-Python chunk does not (over five sets of
30 requests on such a VM, the median request/start ratio ranged over 1.4%,
the median request/chunk ratio over 5.6%), and it never runs while the
child does.
"""

from __future__ import annotations

import bisect
import gc
import signal
import subprocess
import sys
import time
from fractions import Fraction

# A chunk's time on the machine the reference figures were recorded on
# (2-vCPU Intel Xeon VM, Python 3.11.7, in its faster state).
REF_CHUNK_S = 0.0015
REF_START_S = 0.060
CHUNK_ITERATIONS = 3000
PERIOD_S = 0.05  # in-process chunks take about 3% of the time measured


def chunk() -> float:
    """CPU seconds taken by the fixed calibration work: tuple hashing, dict
    updates, int arithmetic and Fractions, like massdual's inner loops.
    The garbage collector is off meanwhile, so the heap the program left
    behind does not change the chunk's cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        table: dict = {}
        s = 0
        acc = Fraction(0)
        for i in range(CHUNK_ITERATIONS):
            key = (i, i * 7919 % 1009, s & 255)
            table[key] = table.get(key, 0) + 1
            s += hash(key) % 977
            if i % 64 == 0:
                acc += Fraction(i + 1, 3 * i + 7)
        sorted(table.values())
        return time.thread_time() - t0
    finally:
        if was_enabled:
            gc.enable()


def interpreter_start(env: dict) -> float:
    """Wall seconds of a bare `python -c pass` with the given environment."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


class Sampler:
    """Context manager that takes calibration chunks while work is measured:
    pure-Python chunks for work in this process, or, given spawn_env, bare
    interpreter starts with that environment for work in child processes.
    Call sample() after each measured interval."""

    def __init__(self, spawn_env: dict | None = None):
        self.spawn_env = spawn_env
        self.ref = REF_CHUNK_S if spawn_env is None else REF_START_S
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self, *_signal_args) -> None:
        self.starts.append(time.perf_counter())
        self.seconds.append(chunk() if self.spawn_env is None else interpreter_start(self.spawn_env))

    def __enter__(self) -> "Sampler":
        self.sample()
        if self.spawn_env is None:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.spawn_env is None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 (perf_counter), less the chunks run inside
        them, at the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.seconds[lo:hi])
        near = self.seconds[max(lo - 1, 0) : hi + 1]
        if not near:
            raise RuntimeError("no calibration chunk was taken")
        return (t1 - t0 - inside) * self.ref * len(near) / sum(near)

    def factor(self) -> float:
        """The scale factor over every chunk taken."""
        return self.ref * len(self.seconds) / sum(self.seconds)
