"""Covering determinism, and the paper-mode regression pin.

Cones are covered by one serial loop; the hazard-filter decision and
the per-cone accounting must come out the same on every run.
"""

from __future__ import annotations

from repro.boolean.cover import Cover
from repro.hazards.analyzer import analyze_cover, hazards_subset
from repro.hazards.multilevel import transition_has_hazard
from repro.library.standard import minimal_teaching_library
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.network.netlist import Netlist


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
    def test_filter_decision_identical_under_threads(self):
        # The hazard screen (MUX21 accepted against its own structure)
        # must be taken identically on a first and on repeated runs.
        net = Netlist.from_equations({"f": "s*a + s'*b"})
        results = [
            async_tmap(
                net, minimal_teaching_library.__wrapped__(), MappingOptions()
            )
            for _ in range(3)
        ]
        for result in results:
            assert result.stats.hazard_accepts >= 1
            assert "MUX21" in result.cell_usage()
        assert len({str(netlist_signature(r.mapped)) for r in results}) == 1

    def test_per_cone_stats_populated(self, mini_library):
        net = Netlist.from_equations({"f": "a*b + c", "g": "a + b'*c"})
        result = async_tmap(net, mini_library, MappingOptions())
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
