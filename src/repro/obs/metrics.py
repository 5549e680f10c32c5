"""Counters, gauges, and histograms for the mapping pipeline.

A :class:`MetricsRegistry` is the one sink for the pipeline's numeric
telemetry.  ``CoverStats`` is only the per-cone accumulator (plain
attributes are the right shape for a single-threaded hot loop); the
merged run-level numbers land here, alongside phase timings and cache
statistics, under stable dotted names:

* ``cover.*``       — the merged :class:`~repro.mapping.cover.CoverStats`
  counters (``cover.matches``, ``cover.filter_invocations``, …);
* ``map.*``         — run-level quality/timing gauges (``map.area``,
  ``map.elapsed_seconds``, ``map.cones``);
* ``annotate.*``    — library-annotation timing and cold/warm source;
* ``anncache.*``    — on-disk annotation-cache I/O timings;
* ``hazard.*``      — hazard-analysis call counts and durations, from
  callers that pass a registry to ``analyze_expression``/``analyze_cover``.

Thread safety: instrument creation takes the registry lock; each
instrument guards its own updates, so worker threads may update shared
instruments directly.  The per-cone hot loop never does — it increments
a per-cone ``CoverStats`` and the registry absorbs the merged
result once per run, keeping disabled/enabled overhead far under the
5% budget.
"""

from __future__ import annotations

import bisect
import dataclasses
import threading
from typing import Optional, Union

#: Default histogram bucket upper bounds (seconds-flavoured: the
#: pipeline's histograms overwhelmingly observe durations).  Cumulative
#: Prometheus ``le`` buckets derive from these; the implicit ``+Inf``
#: bucket is the total count.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")
    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Union[int, float]:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("_lock", "_value")
    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: Optional[Union[int, float, str, bool]] = None

    def set(self, value: Union[int, float, str, bool]) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> Optional[Union[int, float, str, bool]]:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Streaming summary of an observed distribution.

    Keeps count / sum / min / max (enough for rates and means without
    unbounded storage) plus fixed-bound bucket counts so the Prometheus
    exposition (:func:`repro.obs.export.prometheus_text`) can emit the
    standard cumulative ``_bucket{le=...}`` series; the mapper feeds it
    per-cone covering times and per-analysis durations.
    """

    __slots__ = ("_lock", "count", "total", "minimum", "maximum",
                 "bounds", "bucket_counts")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.bounds = tuple(bounds)
        # One slot per bound plus the overflow (+Inf) slot; stored
        # non-cumulative, summed cumulatively at exposition time.
        self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: Union[int, float]) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
            self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> Optional[float]:
        with self._lock:
            return self.total / self.count if self.count else None

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "type": self.kind,
                "count": self.count,
                "sum": self.total,
                "min": self.minimum,
                "max": self.maximum,
                "mean": self.total / self.count if self.count else None,
                # Non-cumulative per-bound counts; the last entry pairs
                # with the implicit +Inf bound.
                "buckets": [
                    [bound, count]
                    for bound, count in zip(
                        (*self.bounds, None), self.bucket_counts
                    )
                ],
            }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named, thread-safe collection of instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    def _get(self, name: str, cls: type) -> Instrument:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls()
                self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {instrument.kind}, not a {cls.kind}"  # type: ignore[attr-defined]
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready view of every instrument, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.to_dict() for name, instrument in items}

    def merge(self, other: Union["MetricsRegistry", dict]) -> None:
        """Fold another registry, or its :meth:`snapshot`, into this one.

        Counters add, histograms combine their summaries, gauges take
        the other registry's value (last write wins, as always).  A
        snapshot is how a process-pool worker's registry crosses back to
        the batch coordinator.
        """
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        for name, instrument in other.items():
            if instrument["type"] == "counter":
                self.counter(name).inc(instrument["value"])
            elif instrument["type"] == "gauge":
                if instrument["value"] is not None:
                    self.gauge(name).set(instrument["value"])
            else:
                mine = self.histogram(name)
                with mine._lock:
                    mine.count += instrument["count"]
                    mine.total += instrument["sum"]
                    theirs_buckets = instrument.get("buckets")
                    if theirs_buckets is not None and len(
                        theirs_buckets
                    ) == len(mine.bucket_counts):
                        for index, (_, count) in enumerate(theirs_buckets):
                            mine.bucket_counts[index] += count
                    for bound, better in (
                        ("min", lambda a, b: b < a),
                        ("max", lambda a, b: b > a),
                    ):
                        theirs = instrument[bound]
                        if theirs is None:
                            continue
                        attr = "minimum" if bound == "min" else "maximum"
                        current = getattr(mine, attr)
                        if current is None or better(current, theirs):
                            setattr(mine, attr, theirs)

    def absorb_cover_stats(self, stats, prefix: str = "cover.") -> None:
        """Fold a merged :class:`~repro.mapping.cover.CoverStats` in.

        Every field becomes a counter — ``cone_seconds`` (a duration
        sum, not a count) too, so repeated runs accumulate, mirroring
        ``CoverStats.merge``.
        """
        for item in dataclasses.fields(stats):
            self.counter(prefix + item.name).inc(getattr(stats, item.name))

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} instruments)"
