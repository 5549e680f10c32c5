"""CoverStats aggregation under parallel covering and repeated runs.

Closes the accounting gap noted in the ``cone_seconds`` docstring: every
counter — and hence the metrics registry that absorbs them — must be
identical for ``workers=1`` and ``workers=4``, and for a first and a
second run of the same design in one process.  Only the
``cone_seconds`` timing sum is excluded (wall time is machine state).
"""

from __future__ import annotations

import pytest

from repro.mapping.cover import CoverStats
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.network.netlist import Netlist
from repro.obs.metrics import MetricsRegistry

# Two mux cones (hazardous MUX21 matches → the filter runs) plus two
# plain cones, so the pool genuinely interleaves work.
EQUATIONS = {
    "f": "s*a + s'*b",
    "g": "t*c + t'*d",
    "h": "a*b + c",
    "k": "(a + b)*c'",
}


def run(mini_library, workers: int) -> tuple[CoverStats, MetricsRegistry]:
    net = Netlist.from_equations(EQUATIONS)
    result = async_tmap(net, mini_library, MappingOptions(workers=workers))
    return result.stats, result.metrics


def counters(stats: CoverStats) -> dict[str, int]:
    return {name: getattr(stats, name) for name in CoverStats.COUNTER_FIELDS}


class TestParallelStatsAggregation:
    def test_work_counters_match_serial(self, mini_library):
        serial, _ = run(mini_library, workers=1)
        threaded, _ = run(mini_library, workers=4)
        assert counters(threaded) == counters(serial)
        assert serial.hazardous_matches > 0  # the filter actually ran

    def test_repeated_runs_in_one_process_count_the_same(self, mini_library):
        # A mux over signals no other test maps: the first run here is
        # the first time the process sees these clusters.
        net = Netlist.from_equations({"y": "u*v + u'*w", "z": "(u + v)*w'"})
        first, second = (
            async_tmap(net, mini_library, MappingOptions()).stats
            for _ in range(2)
        )
        assert counters(second) == counters(first)
        assert first.filter_invocations > 0

    def test_registry_mirrors_merged_stats(self, mini_library):
        for workers in (1, 4):
            stats, registry = run(mini_library, workers)
            for name in CoverStats.COUNTER_FIELDS:
                assert registry.get("cover." + name).value == getattr(
                    stats, name
                ), name
            assert registry.get("cover.cone_seconds").value == pytest.approx(
                stats.cone_seconds
            )
            assert registry.gauge("map.workers").value == workers

    def test_cone_seconds_sums_per_cone_time(self, mini_library):
        stats, _ = run(mini_library, workers=4)
        # Four cones, each timed on its own thread; the merged value is
        # the sum (CPU-style accounting), so it is at least positive and
        # bounded by cones * the slowest cone — sanity, not wall time.
        assert stats.cones == len(EQUATIONS)
        assert stats.cone_seconds > 0.0
