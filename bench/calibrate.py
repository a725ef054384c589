"""Host-speed calibration for the benchmark's times.

On the 2-vCPU virtual machine the baseline was taken on, the same code runs
up to 1.8 times slower for stretches of seconds to minutes, and each CPU
drifts on its own.  A fixed pure-Python loop timed on the same CPU as the
measured work tracks that drift, so every reported time is scaled to a
reference speed: the speed at which the loop runs REF_RATE iterations per
second.  A reported second is a second at that speed.

Two ways to time the loop:
- `loop_time()` before and after a step that runs in another process (a CLI
  invocation, a set-up process, a traced pass), and `scale()`;
- `Sampler`, which times a short run of the loop from a SIGALRM handler
  every PERIOD seconds while an in-process pass runs, so a long request is
  scaled by the speed seen during it.  The handler's own time is taken out
  of the measured intervals.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_RATE = 8.0e6  # loop iterations per second at the reference speed
LOOP = 80000
SAMPLE = 8000
PERIOD = 0.1


def _loop(n: int) -> int:
    s = 0
    d = {}
    for i in range(n):
        s += (i * 7) % 13
        d[i & 63] = s
    return s


def loop_time() -> float:
    """Fastest of three runs of the loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _loop(LOOP)
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor turning a raw time measured between two `loop_time()` results
    into reference seconds."""
    return LOOP / REF_RATE / (0.5 * (before + after))


class Sampler:
    """Loop timings taken from a timer signal while a pass runs in this
    process.  Use as a context manager around the pass."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop(SAMPLE)
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the interval [a, b] of perf_counter, less
        the sampling done inside it.  The speed is the mean of the samples
        inside, or of the three nearest when fewer fall inside."""
        inside = [k for k, t in enumerate(self.at) if a <= t <= b]
        raw = (b - a) - sum(self.took[k] for k in inside)
        if len(inside) < 3:
            mid = 0.5 * (a + b)
            inside = sorted(range(len(self.at)), key=lambda k: abs(self.at[k] - mid))[:3]
        speed = statistics.mean(self.took[k] for k in inside) / SAMPLE
        return raw, raw / (speed * REF_RATE)
