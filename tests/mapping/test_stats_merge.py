"""CoverStats aggregation across cones and repeated runs.

Closes the accounting gap noted in the ``cone_seconds`` docstring: every
counter — and hence the metrics registry that absorbs them — must be
the per-cone sum, and identical for a first and a second run of the
same design in one process.  Only the ``cone_seconds`` timing sum is
excluded from the equality (wall time is machine state).
"""

from __future__ import annotations

import pytest

from repro.mapping.cover import CoverStats
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.network.netlist import Netlist
from repro.obs.metrics import MetricsRegistry

# Two mux cones (hazardous MUX21 matches → the filter runs) plus two
# plain cones.
EQUATIONS = {
    "f": "s*a + s'*b",
    "g": "t*c + t'*d",
    "h": "a*b + c",
    "k": "(a + b)*c'",
}


def run(mini_library) -> tuple[CoverStats, MetricsRegistry]:
    net = Netlist.from_equations(EQUATIONS)
    result = async_tmap(net, mini_library, MappingOptions())
    return result.stats, result.metrics


def counters(stats: CoverStats) -> dict[str, int]:
    return {name: getattr(stats, name) for name in CoverStats.COUNTER_FIELDS}


class TestParallelStatsAggregation:
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
        stats, registry = run(mini_library)
        assert stats.hazardous_matches > 0  # the filter actually ran
        for name in CoverStats.COUNTER_FIELDS:
            assert registry.get("cover." + name).value == getattr(
                stats, name
            ), name
        assert registry.get("cover.cone_seconds").value == pytest.approx(
            stats.cone_seconds
        )

    def test_cone_seconds_sums_per_cone_time(self, mini_library):
        stats, _ = run(mini_library)
        # Four cones, each timed separately; the merged value is their
        # sum, so it is at least positive — sanity, not wall time.
        assert stats.cones == len(EQUATIONS)
        assert stats.cone_seconds > 0.0
