"""Summary statistics and the host probe.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it; every summary carries its sample
count so a reader can judge it.

The benchmark's host is a few vCPUs of a machine shared with other
tenants, and how fast it runs the same code drifts by up to twice,
within seconds as well as across minutes.  :class:`HostProbe` times a
fixed pure-Python loop beside the timed operations: between two
requests, and every :data:`TIMER_PERIOD_S` from a timer signal while a
search runs in the calling thread.  Timings are reported in *reference
seconds*: a wall time scaled by ``REF_LOOP_MS / m``, where ``m`` is the
median probe loop within :data:`PAD_S` of the timed interval.  On a
moment when the loop takes :data:`REF_LOOP_MS` the two agree; on a
slower or faster moment of the same host the reference seconds stay
put, so runs minutes apart compare the program rather than the
neighbours.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: Iterations of the fixed pure-Python loop behind ``host.probe_ms``.
PROBE_ITERATIONS = 20_000

#: Probe loop milliseconds that make a wall second one reference second.
REF_LOOP_MS = 2.0

#: Probe loops within this many seconds of a timed interval scale it.
PAD_S = 1.0

#: Seconds between timer-driven probe loops during a search (one loop
#: takes 1.5-3 ms, so the search pays about 1% for them).
TIMER_PERIOD_S = 0.2

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Summary:
    """One timing summary: ``value`` is None when it cannot be reported."""

    value: float | None
    samples: int
    beyond: int = 0


def mean(values: list[float]) -> Summary:
    """The mean of ``values``: the aggregate for samples of unlike work,
    whose median would rest on the one or two middle samples."""
    if not values:
        return Summary(None, 0)
    return Summary(sum(values) / len(values), len(values))


def median(values: list[float]) -> Summary:
    """The median of ``values`` (None when there are none)."""
    if not values:
        return Summary(None, 0)
    return Summary(float(statistics.median(values)), len(values))


def tail_percentile(values: list[float], q: float) -> Summary:
    """Nearest-rank ``q`` quantile, reported only when at least
    :data:`MIN_BEYOND` samples lie strictly beyond its rank."""
    if not 0.5 <= q < 1.0:
        raise ValueError(f"tail percentile wants 0.5 <= q < 1, got {q}")
    n = len(values)
    if n == 0:
        return Summary(None, 0)
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return Summary(None, n, beyond)
    return Summary(float(sorted(values)[rank - 1]), n, beyond)


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median: the run-to-run spread the bounds are set from."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def loop_ms(iterations: int = PROBE_ITERATIONS) -> float:
    """Wall milliseconds of one pass of the fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop's result live
        raise AssertionError("unreachable")
    return elapsed * 1e3


class HostProbe:
    """Probe loops taken across one run, each with the time it ended
    (``time.perf_counter`` seconds, in increasing order)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []

    def sample(self, loops: int = 3) -> None:
        """Time ``loops`` passes of the fixed loop now (3 take ~5 ms)."""
        for _ in range(loops):
            ms = loop_ms()
            self.times.append(time.perf_counter())
            self.loops.append(ms)

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """One loop every :data:`TIMER_PERIOD_S` while the block runs.

        A ``SIGALRM`` timer runs the loop in the main thread, between
        two bytecodes of whatever it executes, so the loop shares the
        vCPU and the moment of the code it interrupts.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample(1))
        signal.setitimer(signal.ITIMER_REAL, TIMER_PERIOD_S, TIMER_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def median_ms(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Median loop within :data:`PAD_S` of ``[t0, t1]`` (of the whole
        run by default: its ``host.probe_ms``)."""
        lo = bisect.bisect_left(self.times, t0 - PAD_S)
        hi = bisect.bisect_right(self.times, t1 + PAD_S)
        if lo >= hi:
            raise RuntimeError("no host probe loop near a timed interval")
        return float(statistics.median(self.loops[lo:hi]))

    def reference(self, timed: tuple[float, float, float]) -> float:
        """``(wall seconds, t0, t1)``, measured over ``[t0, t1]``, in
        reference seconds."""
        wall_s, t0, t1 = timed
        return wall_s * REF_LOOP_MS / self.median_ms(t0, t1)
