"""Host-speed calibration that brackets every timed unit.

The speed of a small shared VM flips within seconds: on a 2-vCPU x86-64
VM this fixed loop reads about 1.0 ms in one state and 1.8 to 2.3 ms in
the other, so raw timings of one run swing far more than the changes the
benchmark has to resolve.  Every timed unit is therefore bracketed by the
loop, run immediately before and after it (and, for long units of
in-process work, sampled inside it), and its time is scaled by
``REFERENCE_S`` over the mean loop time: "seconds at reference host
speed".

The loop imports only the standard library (nothing from ``repro``, so a
change to the program cannot move it) and is shaped like the simulator's
hot path: ``__slots__`` property reads and writes, small-int masks and dict
stores.  It runs with the garbage collector off.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from statistics import mean, median
from typing import List, Optional, Set

#: Seconds one calibration loop takes on the reference host (2-vCPU x86-64
#: VM, CPython 3.11, median over its fast state).  Normalised timings are
#: "seconds at this speed".
REFERENCE_S = 0.00102

_ITERATIONS = 400
_WIDTHS = (1, 2, 4, 8, 8, 12, 16, 24)


class _Net:
    """A signal-shaped object: masked next value, committed on demand."""

    __slots__ = ("_value", "_next", "_mask")

    def __init__(self, width: int) -> None:
        self._mask = (1 << width) - 1
        self._value = 0
        self._next = 0

    @property
    def value(self) -> int:
        return self._value

    @property
    def next(self) -> int:
        return self._next

    @next.setter
    def next(self, value: int) -> None:
        self._next = value & self._mask

    def commit(self) -> bool:
        changed = self._next != self._value
        self._value = self._next
        return changed


def calibration_loop() -> float:
    """Seconds the fixed loop takes on this host right now."""
    nets = [_Net(width) for width in _WIDTHS]
    written = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(_ITERATIONS):
            for n, net in enumerate(nets):
                net.next = net.value + i + n
                if net.commit():
                    written[n] = net.value
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times units between calibration brackets and keeps every bracket.

    With ``sample_s`` set, the loop also runs every ``sample_s`` seconds
    *inside* a unit, from a ``SIGALRM`` handler, so a unit longer than the
    host's speed states is scaled by the speed it actually ran at.  The
    samples' own time is taken out of the unit.  Only work that runs in
    this process may be sampled: a sample taken while worker processes
    keep every CPU busy measures the contention, not the host.
    """

    def __init__(self) -> None:
        self.brackets: List[float] = []
        #: CPUs to bracket on in turn, for work spread over several CPUs.
        self.cpus: Optional[Set[int]] = None
        self.sample_s: Optional[float] = None
        self._samples: List[float] = []
        self._sampling_s = 0.0
        self._speed = REFERENCE_S

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(calibration_loop())
        self._sampling_s += time.perf_counter() - start

    def _bracket(self) -> float:
        if not self.cpus:
            return calibration_loop()
        allowed = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in sorted(self.cpus):
                os.sched_setaffinity(0, {cpu})
                times.append(calibration_loop())
        finally:
            os.sched_setaffinity(0, allowed)
        return mean(times)

    def time(self, func, *args, **kwargs):
        """Run ``func``; return ``(result, raw seconds, reference seconds)``."""
        self._samples, self._sampling_s = [], 0.0
        before = self._bracket()
        if self.sample_s:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            raw = time.perf_counter() - start
            if self.sample_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        after = self._bracket()
        self.brackets += (before, after)
        self._speed = mean([before, after, *self._samples])
        raw -= self._sampling_s
        return result, raw, self.normalise_last(raw)

    def normalise_last(self, raw: float) -> float:
        """``raw`` at reference speed by the speed the last unit ran at.

        Also for a figure measured inside the last unit, such as the part
        of a set-up probe before it said ``ready``.
        """
        return raw * REFERENCE_S / self._speed

    def cal_ms(self) -> float:
        """Median calibration loop time of this run, in milliseconds."""
        return median(self.brackets) * 1e3
