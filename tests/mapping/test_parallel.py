"""Parallel cone covering: determinism, and the paper-mode regression pin.

``MappingOptions.workers`` threads the covering loop through a
``ThreadPoolExecutor``; the mapped netlist must be bit-identical to the
serial result on every circuit, because cones are independent and
results are merged in cone order.
"""

from __future__ import annotations

import sys

import pytest

from repro.api.facade import netlist_blif
from repro.boolean.cover import Cover
from repro.burstmode.benchmarks import synthesize_benchmark
from repro.hazards.analyzer import analyze_cover, hazards_subset
from repro.hazards.multilevel import transition_has_hazard
from repro.library.standard import load_library, minimal_teaching_library
from repro.mapping.cover import CoverStats
from repro.mapping.mapper import MappingOptions, async_tmap, tmap
from repro.network.netlist import Netlist

BENCHES = ["dme", "chu-ad-opt", "vanbek-opt"]


def netlist_signature(netlist: Netlist):
    """A structural fingerprint: every gate's name, cell, and fanins."""
    return sorted(
        (
            node.name,
            node.cell.name if node.cell else None,
            tuple(node.fanins),
        )
        for node in netlist.gates()
    )


class TestParallelDeterminism:
    @pytest.mark.parametrize("bench", BENCHES)
    def test_workers_do_not_change_async_mapping(self, bench):
        library = load_library("CMOS3")
        if not library.annotated:
            library.annotate_hazards()
        net = synthesize_benchmark(bench).netlist(bench)
        serial = async_tmap(net, library, MappingOptions(workers=1))
        threaded = async_tmap(net, library, MappingOptions(workers=4))
        assert serial.area == threaded.area
        assert serial.delay == threaded.delay
        assert serial.cell_usage() == threaded.cell_usage()
        assert netlist_signature(serial.mapped) == netlist_signature(
            threaded.mapped
        )
        assert threaded.workers == 4 and serial.workers == 1

    def test_shared_match_memo_survives_thread_interleaving(self):
        # One match memo serves every cone of a run, so pool threads
        # fill it concurrently.  With more threads than cores and a
        # switch forced every microsecond, the netlist and every
        # counter must still be the serial run's.
        library = load_library("CMOS3")
        library.annotate_hazards()
        net = synthesize_benchmark("pe-send-ifc").netlist("pe-send-ifc")
        serial = async_tmap(net, library, MappingOptions(workers=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = async_tmap(net, library, MappingOptions(workers=8))
        finally:
            sys.setswitchinterval(interval)
        assert netlist_blif(threaded.mapped) == netlist_blif(serial.mapped)
        for name in CoverStats.COUNTER_FIELDS:
            assert getattr(threaded.stats, name) == getattr(
                serial.stats, name
            ), name

    def test_workers_do_not_change_sync_mapping(self, mini_library):
        net = Netlist.from_equations(
            {"f": "a*b + c", "g": "a'*c + b*c", "h": "(a + b)*c'"}
        )
        serial = tmap(net, mini_library, MappingOptions(workers=1))
        threaded = tmap(net, mini_library, MappingOptions(workers=3))
        assert netlist_signature(serial.mapped) == netlist_signature(
            threaded.mapped
        )

    def test_workers_zero_auto_sizes(self, mini_library):
        net = Netlist.from_equations({"f": "s*a + s'*b"})
        options = MappingOptions(workers=0)
        assert options.resolved_workers() >= 1
        result = async_tmap(net, mini_library, options)
        assert result.workers == options.resolved_workers()

    def test_filter_decision_identical_under_threads(self):
        # The hazard screen (MUX21 accepted against its own structure)
        # must be taken identically whether or not a thread pool is in
        # play, and on a repeated run.
        net = Netlist.from_equations({"f": "s*a + s'*b"})
        results = [
            async_tmap(
                net, minimal_teaching_library.__wrapped__(), MappingOptions(workers=w)
            )
            for w in (1, 4, 4)
        ]
        for result in results:
            assert result.stats.hazard_accepts >= 1
            assert "MUX21" in result.cell_usage()
        assert len({str(netlist_signature(r.mapped)) for r in results}) == 1

    def test_per_cone_stats_populated(self, mini_library):
        net = Netlist.from_equations({"f": "a*b + c", "g": "a + b'*c"})
        result = async_tmap(net, mini_library, MappingOptions(workers=2))
        assert result.stats.cones == 2
        assert result.stats.cone_seconds > 0.0


class TestPaperModeRegression:
    """Pin the documented gap of the ``"paper"`` filter mode.

    The record-list procedure misses pulse hazards of *absorbed* cubes:
    ``f = a'b' + a'b'cd' + d'`` carries a dynamic hazard on
    0000 -> 1101 (the absorbed middle cube turns on and off while a, c,
    d rise) that the irredundant two-cube cover of the same function
    lacks — so the exact filter must reject the pair while the paper
    filter, blind to the absorbed cube's pulse, accepts it.  If the
    paper-mode filter ever learns this case, this test will flag the
    (welcome) behaviour change.
    """

    NAMES = ["a", "b", "c", "d"]
    START, END = 0b0000, 0b1101  # a, c, d rise; b stays 0

    def analyses(self):
        cell = analyze_cover(
            Cover.from_strings(["a'b'", "a'b'cd'", "d'"], self.NAMES),
            self.NAMES,
            exhaustive=True,
        )
        target = analyze_cover(
            Cover.from_strings(["a'b'", "d'"], self.NAMES),
            self.NAMES,
            exhaustive=True,
        )
        return cell, target

    def test_absorbed_cube_pulse_exists_only_in_cell(self):
        cell, target = self.analyses()
        assert transition_has_hazard(cell.lsop, self.START, self.END)
        assert not transition_has_hazard(target.lsop, self.START, self.END)

    def test_exact_filter_rejects(self):
        cell, target = self.analyses()
        assert not hazards_subset(cell, target, mode="exact")

    def test_paper_filter_misses_the_pulse(self):
        cell, target = self.analyses()
        assert hazards_subset(cell, target, mode="paper")
