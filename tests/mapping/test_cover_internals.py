"""Tests for covering internals: stats, caps, and cone covers."""

import functools

import pytest

import repro.mapping.cover as cover_module
import repro.mapping.match as match_module
from repro.api.facade import netlist_blif
from repro.burstmode.benchmarks import synthesize_benchmark
from repro.hazards.analyzer import find_subset_violation
from repro.library import Library, minimal_teaching_library
from repro.library.standard import load_library
from repro.mapping.cover import ConeCover, CoverStats, cover_cone
from repro.mapping.cuts import enumerate_clusters
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.network.decompose import async_tech_decomp
from repro.network.netlist import Netlist
from repro.network.partition import partition


def decompose(equations):
    net = Netlist.from_equations(equations)
    decomposed = async_tech_decomp(net)
    return decomposed, partition(decomposed)


class TestCoverStats:
    def test_merge_accumulates(self):
        a = CoverStats(clusters=1, matches=2, hazardous_matches=3,
                       hazard_rejections=4, hazard_accepts=5, dc_waivers=6)
        b = CoverStats(clusters=10, matches=20, hazardous_matches=30,
                       hazard_rejections=40, hazard_accepts=50, dc_waivers=60)
        a.merge(b)
        assert (a.clusters, a.matches, a.dc_waivers) == (11, 22, 66)


class TestConeCover:
    def test_area_sums_selected_cells(self, mini_library):
        decomposed, cones = decompose({"f": "a*b + c"})
        cover = cover_cone(decomposed, cones[0], mini_library)
        assert cover.area == sum(
            s.match.cell.area for s in cover.selections
        )
        assert cover.area > 0

    def test_selections_cover_whole_cone(self, mini_library):
        decomposed, cones = decompose({"f": "a*b*c + d'"})
        cover = cover_cone(decomposed, cones[0], mini_library)
        replaced = set()
        for selection in cover.selections:
            replaced |= set(selection.cluster.members)
        assert replaced == set(cones[0].members)

    def test_objective_area_at_least_as_small(self, mini_library):
        decomposed, cones = decompose({"f": "a*b*c*d + a'*b'"})
        area_first = cover_cone(
            decomposed, cones[0], mini_library, objective="area"
        )
        delay_first = cover_cone(
            decomposed, cones[0], mini_library, objective="delay"
        )
        assert area_first.area <= delay_first.area + 1e-9


def largest_cone(cones):
    return max(cones, key=lambda cone: len(cone.members))


class TestClusterCaps:
    def test_per_node_cluster_cap(self, monkeypatch, mini_library):
        decomposed, cones = decompose(
            {"f": "a*b*c*d + a'*b'*c'*d' + a*b'*c*d'"}
        )
        cone = largest_cone(cones)
        full = enumerate_clusters(decomposed, cone, max_clusters_per_node=None)
        hits: list[str] = []
        capped = enumerate_clusters(
            decomposed, cone, max_clusters_per_node=2, capped=hits
        )
        for group in capped.values():
            assert len(group) <= 2
        # Exactly the nodes that lost a cluster are counted, once each.
        assert sorted(hits) == sorted(
            node for node, group in full.items() if len(group) > 2
        )
        assert len(hits) >= 2
        # A node holding exactly the cap dropped nothing.
        widest = max(len(group) for group in full.values())
        at_cap: list[str] = []
        enumerate_clusters(
            decomposed, cone, max_clusters_per_node=widest, capped=at_cap
        )
        assert at_cap == []

        # cover_cone counts the hits in CoverStats.cluster_cap_hits.
        expected: list[str] = []
        enumerate_clusters(
            decomposed,
            cone,
            max_inputs=mini_library.max_pins,
            max_clusters_per_node=2,
            capped=expected,
        )
        monkeypatch.setattr(
            cover_module,
            "enumerate_clusters",
            functools.partial(enumerate_clusters, max_clusters_per_node=2),
        )
        stats = CoverStats()
        cover_cone(decomposed, cone, mini_library, stats=stats)
        assert stats.cluster_cap_hits == len(expected) > 0

        # A run publishes the count as a counter.
        result = async_tmap(
            Netlist.from_equations({"f": "a*b*c*d + a'*b'*c'*d' + a*b'*c*d'"}),
            mini_library,
        )
        hits = result.stats.cluster_cap_hits
        assert hits >= len(expected)
        assert result.metrics.counter("cover.cluster_cap_hits").value == hits

    def test_uncapped_superset_of_capped(self):
        decomposed, cones = decompose({"f": "a*b + c*d"})
        capped = enumerate_clusters(
            decomposed, cones[0], max_clusters_per_node=1
        )
        full = enumerate_clusters(
            decomposed, cones[0], max_clusters_per_node=None
        )
        for node, group in capped.items():
            assert len(group) <= len(full[node])


#: Cells of 1, 2 and 4 pins: the widest has 4, and none has 3.
GAPPED_SPEC = [
    ("INV", "a'", None, 0.5),
    ("AND2", "a*b", None, 1.0),
    ("OR2", "a + b", None, 1.0),
    ("NAND2", "(a*b)'", None, 1.0),
    ("AO22", "a*b + c*d", None, 2.0),
    ("OA22", "(a + b)*(c + d)", None, 2.0),
]


class TestClusterRecordAnalyses:
    @pytest.mark.parametrize("filter_mode", ["exact", "paper"])
    def test_only_the_record_filter_computes_cluster_records(self, filter_mode):
        # The inverting mux matches ACTEL's MUX21I_1X, whose static-0
        # record the paper filter checks against the cluster's records;
        # the exact filter reads only the cluster's labelled SOP.
        result = async_tmap(
            Netlist.from_equations({"f": "(s*a + s'*b)'"}),
            load_library("ACTEL"),
            MappingOptions(filter_mode=filter_mode),
        )
        assert result.cell_usage() == {"MUX21I_1X": 1}
        analyses = result.stats.cluster_analyses
        assert (analyses > 0) == (filter_mode == "paper")
        assert result.metrics.counter("cover.cluster_analyses").value == analyses


class TestFilterAgreesWithItsViolationWalk:
    @pytest.mark.parametrize("filter_mode", ["exact", "paper"])
    def test_every_screen_agrees(self, monkeypatch, filter_mode):
        # ``find_subset_violation`` finds no offence exactly when the
        # screen accepts.  Every catalog screen on ACTEL rejects, so the
        # inverting mux (accepted as MUX21I_1X) supplies the accepts.
        screen = cover_module.hazards_subset
        outcomes: list[bool] = []

        def checked(cell, target, mapping=None, mode="exact"):
            accepted = screen(cell, target, mapping=mapping, mode=mode)
            violation = find_subset_violation(
                cell, target, mapping=mapping, mode=mode
            )
            assert (violation is None) == accepted
            outcomes.append(accepted)
            return accepted

        monkeypatch.setattr(cover_module, "hazards_subset", checked)
        library = load_library("ACTEL")
        networks = [
            synthesize_benchmark(name).netlist(name)
            for name in ("dme-fast", "pe-send-ifc")
        ]
        networks.append(Netlist.from_equations({"f": "(s*a + s'*b)'"}))
        for network in networks:
            async_tmap(network, library, MappingOptions(filter_mode=filter_mode))
        assert outcomes.count(False) >= 125 and outcomes.count(True) >= 1


class TestMatchOnlyWhatTheLibraryCan:
    def test_truth_tables_only_at_pin_counts_a_cell_has(self, monkeypatch):
        library = Library.from_spec("GAPPED", GAPPED_SPEC)
        widths: list[int] = []
        tabulate = match_module.expression_truth_table

        def spy(expr, order):
            widths.append(len(order))
            return tabulate(expr, order)

        monkeypatch.setattr(match_module, "expression_truth_table", spy)
        decomposed, cones = decompose(
            {
                "f": "a*b*c*d + e*g + a'*h*c'",
                "y": "(a + b)*(c + d)*(e + g) + h",
            }
        )
        for cone in cones:
            assert cover_cone(decomposed, cone, library).selections
        assert max(widths) == library.max_pins == 4
        assert set(widths) <= {1, 2, 4}

    def test_each_function_is_matched_once_per_run(self, monkeypatch):
        tables: list[tuple[int, int]] = []
        searched: list[tuple[int, int]] = []
        tabulate = match_module.expression_truth_table
        search = match_module.find_matches

        def tt_spy(expr, order):
            table = tabulate(expr, order)
            tables.append((table, len(order)))
            return table

        def find_spy(library, table, num_inputs):
            searched.append((table, num_inputs))
            return search(library, table, num_inputs)

        monkeypatch.setattr(match_module, "expression_truth_table", tt_spy)
        monkeypatch.setattr(match_module, "find_matches", find_spy)
        library = load_library("CMOS3")
        network = synthesize_benchmark("dme-fast").netlist("dme-fast")
        first = async_tmap(network, library)
        assert searched and len(searched) == len(set(searched))
        assert set(searched) <= set(tables)
        assert len(set(tables)) < len(tables)  # the run does repeat functions

        # The memo lives for one run: a second run searches again.
        first_searches = list(searched)
        searched.clear()
        second = async_tmap(network, library)
        assert searched == first_searches
        assert netlist_blif(second.mapped) == netlist_blif(first.mapped)


class TestLibraryRequirements:
    def test_inverter_only_library_cannot_cover(self):
        from repro.mapping.cover import MappingError

        poor = Library.from_spec("POOR", [("INV", "a'", None, 0.5)])
        decomposed, cones = decompose({"f": "a*b"})
        with pytest.raises(MappingError):
            cover_cone(decomposed, cones[0], poor)

    def test_base_gate_library_suffices(self):
        base = Library.from_spec(
            "BASE",
            [
                ("INV", "a'", None, 0.5),
                ("AND2", "a*b", None, 1.0),
                ("OR2", "a + b", None, 1.0),
            ],
        )
        decomposed, cones = decompose({"f": "a*b' + c*d + a'*c'"})
        for cone in cones:
            cover = cover_cone(decomposed, cone, base)
            assert cover.selections
