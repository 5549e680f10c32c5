"""Host-speed correction: a calibration loop sampled on the program's CPU.

A shared 2-vCPU virtual machine (measured on an Intel Xeon at 2.1 GHz)
switches each vCPU between speeds up to 1.7x apart, in phases lasting
seconds, with steal time 0; no aggregation of wall times inside a
30-second run removes that.  A :class:`Sampler` thread therefore wakes
every :data:`PERIOD_S`, runs a fixed pure-Python loop on the CPU the
program runs on and records how long it took.  A timed interval is then scaled to the host speed at
which the loop takes :data:`REFERENCE_S`::

    corrected = elapsed * mean(REFERENCE_S / loop_time)

over the samples taken during the interval (widened to
:data:`WINDOW_S` around its middle when it is shorter).  The loop is
the benchmark's own code, never the program's, so a change to the
program moves the corrected time as much as the wall time.

The sampler costs the program about 1 % of its CPU (a ~0.4 ms loop
every 50 ms); parent and change pay the same.
"""

from __future__ import annotations

import bisect
import os
import threading
from time import perf_counter

#: Seconds between samples.
PERIOD_S = 0.05
#: About the loop's time in the fast phase of a 2.1 GHz Xeon vCPU;
#: corrected times are seconds at that speed.
REFERENCE_S = 400e-6
#: Shortest window a correction factor is taken over.
WINDOW_S = 0.5


_MULTIPLIER = 0x9E3779B97F4A7C15
_MASK = (1 << 256) - 1


class _Pair:
    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int) -> None:
        self.low = low
        self.high = high


def _step(pair: _Pair, m: int) -> _Pair:
    return _Pair(pair.high, (pair.low * _MULTIPLIER + m) & _MASK)


def calibration_loop() -> int:
    """Calls, small objects, tuple hashing and 256-bit integers, like
    the mapper's truth-table code.  A tight integer loop tracked the
    program's slowdown less well: per-request times corrected by it
    still varied 5-8 % (CV) within a run, against 3-4 % with this one.
    It keeps no garbage-collected objects alive, so it never triggers a
    collection."""
    pair = _Pair(1, 2)
    seen = set()
    for m in range(700):
        pair = _step(pair, m)
        seen.add(hash((pair.low & 255, m & 7)))
    return len(seen)


class Sampler:
    """Samples the loop on ``cpu`` from a thread of this process.

    Use as a context manager; :meth:`corrected` converts a
    ``perf_counter`` interval into seconds at the reference speed.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        #: ``(loop start, REFERENCE_S / loop time)`` in time order.
        self.samples: list[tuple[float, float]] = []
        self.error: BaseException | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed",
                                        daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        # Let the window before the first timed interval fill.
        while len(self.samples) < WINDOW_S / PERIOD_S:
            self._check()
            self._stop.wait(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._check()

    def _check(self) -> None:
        """Raise if the sampling thread failed: its samples stopped."""
        if self.error is not None or not self._thread.is_alive() \
                and not self._stop.is_set():
            raise RuntimeError("speed sampler stopped") from self.error

    def _run(self) -> None:
        try:
            os.sched_setaffinity(0, {self.cpu})  # this thread only
            while not self._stop.wait(PERIOD_S):
                started = perf_counter()
                calibration_loop()
                elapsed = perf_counter() - started
                self.samples.append((started, REFERENCE_S / elapsed))
        except BaseException as exc:  # reported by _check in the caller
            self.error = exc

    def factor(self, start: float, end: float) -> float:
        """Mean ``REFERENCE_S / loop_time`` over ``[start, end]``."""
        if end - start < WINDOW_S:
            middle = (start + end) / 2
            start, end = middle - WINDOW_S / 2, middle + WINDOW_S / 2
        samples = self.samples[:]
        low = bisect.bisect_left(samples, start, key=lambda s: s[0])
        high = bisect.bisect_right(samples, end, key=lambda s: s[0])
        # No sample inside: the last one before the window.
        window = samples[low:high] or samples[max(low - 1, 0):low]
        if not window:
            raise RuntimeError("no speed sample near the timed interval")
        return sum(f for _, f in window) / len(window)

    def corrected(self, start: float, end: float) -> float:
        """``end - start`` in seconds at the reference speed."""
        return (end - start) * self.factor(start, end)
