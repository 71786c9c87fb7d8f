"""Summaries of timing samples, open-loop accounting, machine speed.

Timings are reported as a median plus the highest percentile that still
has at least ``BEYOND`` samples above it (capped at p99), together with
the sample count, so a tail figure is never read off a handful of
samples.

The machines this runs on are shared, and their interpreter speed swings
by up to a factor of two within seconds.  :class:`Speed` interleaves a
short calibration slice -- a fixed batch of pure-Python work that uses
no code of the program, so no change to the program can move it -- with
the measured operations every few milliseconds.  Gated times are scaled
to the reference speed at which one slice takes ``REFERENCE_SLICE_US``,
each by the slices taken around it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: samples that must lie beyond a reported tail percentile
BEYOND = 10
#: the tail percentile reported once a run has enough samples for it
TAIL_CAP = 99.0
#: one calibration slice at the reference interpreter speed, in us
REFERENCE_SLICE_US = 150.0


def tail_percentile(n: int, cap: float = TAIL_CAP, beyond: int = BEYOND) -> Optional[float]:
    """The highest percentile, in tenths and at most ``cap``, that leaves
    at least ``beyond`` of ``n`` samples strictly above it (nearest-rank).
    None when ``n`` is too small for any tail."""
    if n <= beyond:
        return None
    tenths = min(int(round(cap * 10)), (1000 * (n - beyond)) // n)
    return tenths / 10.0


def percentile_value(sorted_samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    n = len(sorted_samples)
    tenths = int(round(pct * 10))
    rank = max(1, -(-tenths * n // 1000))
    return sorted_samples[rank - 1]


def summarize(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, tail percentile and its value, and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = tail_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(ordered) if ordered else None,
        "tail_pct": pct,
        "tail": percentile_value(ordered, pct) if pct is not None else None,
    }


class OpenLoop:
    """A fixed-rate request schedule that times each request from when it
    was due, so a stall also charges the requests queued behind it.

    ``clock`` returns nanoseconds and ``sleep`` takes seconds; both are
    injectable so the accounting can be tested without real waiting.
    """

    def __init__(
        self,
        rate_per_s: float,
        clock: Callable[[], int] = time.perf_counter_ns,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if rate_per_s <= 0:
            raise ValueError("open-loop rate must be positive")
        self.interval_ns = 1e9 / rate_per_s
        self.clock = clock
        self.sleep = sleep
        #: request latency from its due time, in ns
        self.latencies: List[int] = []
        #: how late the generator issued each request, in ns (>= 0)
        self.lateness: List[int] = []

    def run(self, issue: Callable[[int], None], start_ns: int,
            keep_going: Callable[[int], bool]) -> int:
        """Issue request ``k`` at ``start_ns + k * interval`` while
        ``keep_going(due_ns)`` holds; returns the number issued."""
        k = 0
        while True:
            due = start_ns + int(k * self.interval_ns)
            if not keep_going(due):
                return k
            now = self.clock()
            if now < due:
                self.sleep((due - now) / 1e9)
                now = self.clock()
            self.lateness.append(max(0, now - due))
            issue(k)
            self.latencies.append(self.clock() - due)
            k += 1


class _Guest:
    __slots__ = ("name", "memory", "vcpus")

    def __init__(self, name: str, memory: int, vcpus: int) -> None:
        self.name = name
        self.memory = memory
        self.vcpus = vcpus

    def describe(self) -> str:
        return f"<domain><name>{self.name}</name><memory>{self.memory}</memory><vcpu>{self.vcpus}</vcpu></domain>"


def calibration_slice() -> int:
    """CPU ns of the calling thread for one fixed batch of interpreter
    work shaped like the program's own: small objects, formatting, dict
    churn, a sort.  Thread CPU time, so the wait for the interpreter lock
    while the program's own threads run does not count: the slice
    measures the machine, not the program."""
    start = time.thread_time_ns()
    table: Dict[str, Tuple[int, int]] = {}
    for i in range(100):
        guest = _Guest(f"g{i}", i * 1024, i % 4)
        table[guest.name] = (len(guest.describe()), guest.memory // 1024)
        if i % 7 == 0:
            table.pop(f"g{i - 7}", None)
    sorted(table.items())
    return time.thread_time_ns() - start


def slice_factor(*slices_ns: int) -> float:
    """Reference slice time over the measured one(s): multiply a time
    measured next to them by this (divide a rate) to state it at the
    reference speed."""
    return REFERENCE_SLICE_US * 1000.0 / statistics.median(slices_ns)


class Speed:
    """Calibration slices interleaved with a measured window."""

    #: slices each side of a slice that smooth its factor
    SMOOTH = 2

    def __init__(self, every_ms: float = 5.0, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.every_ns = int(every_ms * 1e6)
        self.clock = clock
        self.at: List[int] = []
        self.slice_ns: List[int] = []
        #: wall time spent in slices, to take out of the measured window
        self.wall_ns = 0
        self._next = 0

    def tick(self, force: bool = False) -> None:
        """Take a slice if ``every_ms`` passed since the last (or ``force``)."""
        now = self.clock()
        if now < self._next and not force:
            return
        self.slice_ns.append(calibration_slice())
        self.at.append(now)
        self.wall_ns += self.clock() - now
        self._next = now + self.every_ns

    def factors(self) -> List[float]:
        """Per slice: the factor of the median of it and its neighbours,
        so a slice another thread interrupted does not skew its stretch."""
        k = self.SMOOTH
        return [slice_factor(*self.slice_ns[max(0, i - k): i + k + 1]) for i in range(len(self.slice_ns))]

    def scale(self, starts: Sequence[int], values: Sequence[float]) -> List[float]:
        """``values`` measured at ``starts`` (ns), each scaled by the factor
        of the slice nearest in time."""
        factors = self.factors()
        if not factors:
            return list(values)
        at = self.at
        out = []
        for start, value in zip(starts, values):
            i = bisect.bisect_left(at, start)
            if i == len(at) or (i > 0 and start - at[i - 1] < at[i] - start):
                i -= 1
            out.append(value * factors[i])
        return out

    def mean_factor(self) -> float:
        """The factor over the whole window (slices are evenly spaced)."""
        factors = self.factors()
        return sum(factors) / len(factors) if factors else 1.0


def interval_union(intervals: "List[Tuple[int, int]]") -> int:
    """Total length covered by a set of half-open intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


__all__ = [
    "BEYOND",
    "OpenLoop",
    "Speed",
    "calibration_slice",
    "interval_union",
    "percentile_value",
    "safe_ratio",
    "slice_factor",
    "summarize",
    "tail_percentile",
]
