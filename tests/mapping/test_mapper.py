"""End-to-end tests of the synchronous and asynchronous mappers."""

import pytest

from repro.conformance import certify_mapping
from repro.library import Library, minimal_teaching_library
from repro.mapping.cover import MappingError
from repro.mapping.mapper import MappingOptions, async_tmap, tmap
from repro.network.netlist import Netlist

HAZARD_FREE_MUX = {"f": "s*a + s'*b + a*b"}


class TestSyncMapper:
    def test_maps_and_preserves_function(self, mini_library):
        net = Netlist.from_equations(HAZARD_FREE_MUX)
        result = tmap(net, mini_library)
        assert result.mapped.equivalent(net)
        assert result.area > 0
        assert result.mode == "sync"

    def test_sync_introduces_hazards_on_redundant_cover(self, mini_library):
        # Figure 3: the cheaper mux cover drops the consensus gate.
        net = Netlist.from_equations(HAZARD_FREE_MUX)
        result = tmap(net, mini_library)
        certificate = certify_mapping(net, result.mapped, mini_library)
        assert certificate.equivalent
        assert not certificate.hazard_safe

    def test_every_gate_is_a_library_cell(self, mini_library):
        net = Netlist.from_equations({"f": "a*b + c*d'"})
        result = tmap(net, mini_library)
        for gate in result.mapped.gates():
            assert gate.cell is not None
            assert gate.cell in mini_library.cells


class TestAsyncMapper:
    def test_maps_and_verifies_hazard_safe(self, mini_library):
        net = Netlist.from_equations(HAZARD_FREE_MUX)
        result = async_tmap(net, mini_library)
        certificate = certify_mapping(net, result.mapped, mini_library)
        assert certificate.certified, certificate.violations

    def test_async_keeps_consensus_gate(self, mini_library):
        net = Netlist.from_equations(HAZARD_FREE_MUX)
        sync_result = tmap(net, mini_library)
        async_result = async_tmap(net, mini_library)
        # the async cover cannot be cheaper: it must keep the redundancy
        assert async_result.area >= sync_result.area

    def test_hazardous_cell_used_when_hazards_match(self, mini_library):
        # Source *is* the plain 2-cube mux (it carries the hazard), so
        # the MUX21 cell's hazards are a subset and it may be used.
        net = Netlist.from_equations({"f": "s*a + s'*b"})
        result = async_tmap(net, mini_library)
        certificate = certify_mapping(net, result.mapped, mini_library)
        assert certificate.certified, certificate.violations
        assert result.stats.hazard_accepts >= 1
        assert "MUX21" in result.cell_usage()

    def test_multiple_outputs(self, mini_library):
        net = Netlist.from_equations(
            {"f": "a*b + c", "g": "a'*c + b*c", "h": "(a + b)*c'"}
        )
        result = async_tmap(net, mini_library)
        assert result.mapped.equivalent(net)
        certificate = certify_mapping(net, result.mapped, mini_library)
        assert certificate.certified, certificate.violations

    def test_shared_logic_across_outputs(self, mini_library):
        net = Netlist.from_equations({"f": "x + d", "g": "x + e", "x": "a*b"})
        result = async_tmap(net, mini_library)
        assert result.mapped.equivalent(net)

    def test_stats_populated(self, mini_library):
        net = Netlist.from_equations(HAZARD_FREE_MUX)
        result = async_tmap(net, mini_library)
        assert result.stats.clusters > 0
        assert result.stats.matches > 0

    def test_annotation_happens_once(self):
        library = minimal_teaching_library()
        net = Netlist.from_equations({"f": "a*b"})
        first = async_tmap(net, library)
        second = async_tmap(net, library)
        assert second.annotate_elapsed == 0.0 or library.annotated

    def test_map_seconds_exclude_cold_annotation(self):
        # A cold ACTEL annotation takes far longer than mapping
        # chu-ad-opt; map time that included it could not be smaller.
        from repro.api import MapRequest, execute_map
        from repro.library import anncache
        from repro.library.standard import actel_act1

        library = actel_act1.__wrapped__()
        assert not library.annotated
        response = execute_map(
            MapRequest(design="chu-ad-opt", library="ACTEL"),
            library=library,
            cache_dir=anncache.DISABLED,
        )
        assert response.annotate_source == "cold"
        assert 0.0 < response.map_seconds < response.annotate_seconds


class TestOptions:
    def test_depth_bound_changes_search(self, mini_library):
        net = Netlist.from_equations({"f": "(a*b + c)'"})
        shallow = async_tmap(net, mini_library, MappingOptions(max_depth=1))
        deep = async_tmap(net, mini_library, MappingOptions(max_depth=5))
        assert deep.area <= shallow.area

    def test_delay_objective(self, mini_library):
        net = Netlist.from_equations({"f": "a*b*c*d + a'*b'"})
        area_result = async_tmap(net, mini_library, MappingOptions(objective="area"))
        delay_result = async_tmap(
            net, mini_library, MappingOptions(objective="delay")
        )
        assert delay_result.delay <= area_result.delay + 1e-9

    def test_unmappable_library_raises(self):
        poor = Library.from_spec("POOR", [("INV", "a'", None, 0.5)])
        net = Netlist.from_equations({"f": "a*b"})
        with pytest.raises(MappingError):
            tmap(net, poor)


class TestMappedNetlistShape:
    def test_cell_usage_counts(self, mini_library):
        net = Netlist.from_equations({"f": "a*b + c*d"})
        result = tmap(net, mini_library)
        usage = result.cell_usage()
        assert sum(usage.values()) == result.mapped.gate_count()

    def test_summary_keys(self, mini_library):
        net = Netlist.from_equations({"f": "a*b"})
        result = tmap(net, mini_library)
        assert set(result.summary()) == {"area", "delay", "cells", "cpu"}
