"""Annotation-cache tests: warm results must equal cold results.

Covers the on-disk library-annotation cache
(:mod:`repro.library.anncache`) and full mapping runs replayed against
it, plus the failure modes: corrupt and stale cache files must be
detected and silently rebuilt, never trusted.
"""

from __future__ import annotations

import json

import pytest

from repro.library import anncache
from repro.library.standard import (
    actel_act1,
    cmos3,
    gdt,
    lsi9k,
    minimal_teaching_library,
)
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.network.netlist import Netlist

MUX = {"f": "s*a + s'*b"}


def fresh_teaching_library():
    return minimal_teaching_library.__wrapped__()


def summaries_equal(a, b) -> bool:
    return (
        a.summary() == b.summary()
        and a.static1 == b.static1
        and a.static0 == b.static0
        and a.mic_dynamic == b.mic_dynamic
        and a.sic_dynamic == b.sic_dynamic
    )


class TestDiskAnnotationCache:
    def test_cold_then_disk_round_trip(self, tmp_path):
        cold_lib = cmos3.__wrapped__()
        cold = cold_lib.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        assert cold.source == "cold" and not cold.warm

        warm_lib = cmos3.__wrapped__()
        warm = warm_lib.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        assert warm.source == "disk" and warm.warm
        assert warm.cells == cold.cells and warm.hazardous == cold.hazardous

        for cold_cell, warm_cell in zip(cold_lib.cells, warm_lib.cells):
            assert cold_cell.name == warm_cell.name
            assert summaries_equal(cold_cell.analysis, warm_cell.analysis)
            assert (cold_cell.analysis.verdicts is None) == (
                warm_cell.analysis.verdicts is None
            )
            if cold_cell.analysis.verdicts is not None:
                assert cold_cell.analysis.verdicts == warm_cell.analysis.verdicts

    @pytest.mark.parametrize("build", [actel_act1, cmos3, gdt, lsi9k])
    def test_is_hazardous_cold_and_from_disk(self, build, tmp_path):
        # The shared instance is annotated cold; its analyses, stored and
        # replayed into a fresh instance, arrive from disk.
        cold = build()
        cold_report = cold.annotate_hazards(cache_dir=anncache.DISABLED)
        anncache.store_annotations(cold, True, cold_report.elapsed, tmp_path)
        warm = build.__wrapped__()
        assert warm.annotate_hazards(cache_dir=tmp_path).source == "disk"
        for library in (cold, warm):
            assert [cell.is_hazardous for cell in library.cells] == [
                cell.analysis.has_hazards for cell in library.cells
            ]

    def test_memory_short_circuit(self, tmp_path):
        library = cmos3.__wrapped__()
        library.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        again = library.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        assert again.source == "memory" and again.elapsed == 0.0

    def test_corrupt_file_is_rebuilt(self, tmp_path):
        library = cmos3.__wrapped__()
        library.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        path = anncache.annotation_path(library, True, tmp_path)
        assert path.exists()
        path.write_bytes(b"not a json payload {")

        rebuilt = cmos3.__wrapped__()
        report = rebuilt.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        assert report.source == "cold"  # fell back silently
        # ... and the store was repaired: a third load hits disk again.
        third = cmos3.__wrapped__()
        assert (
            third.annotate_hazards(exhaustive=True, cache_dir=tmp_path).source
            == "disk"
        )

    def test_stale_fingerprint_is_rebuilt(self, tmp_path):
        library = cmos3.__wrapped__()
        library.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        path = anncache.annotation_path(library, True, tmp_path)
        data = json.loads(path.read_text())
        data["fingerprint"] = "0" * 64
        path.write_text(json.dumps(data))

        rebuilt = cmos3.__wrapped__()
        report = rebuilt.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        assert report.source == "cold"

    def test_flavour_mismatch_misses(self, tmp_path):
        library = cmos3.__wrapped__()
        library.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        other = cmos3.__wrapped__()
        report = other.annotate_hazards(exhaustive=False, cache_dir=tmp_path)
        # Different flavour lives at a different path: cold, not disk.
        assert report.source == "cold"

    def test_refresh_forces_cold(self, tmp_path):
        library = cmos3.__wrapped__()
        library.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        report = library.annotate_hazards(
            exhaustive=True, cache_dir=tmp_path, refresh=True
        )
        assert report.source == "cold"

    def test_env_toggle_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ANNOTATION_CACHE", raising=False)
        assert anncache.resolve_cache_dir(None) is None

    def test_env_toggle_values(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ANNOTATION_CACHE", "0")
        assert anncache.resolve_cache_dir(None) is None
        monkeypatch.setenv("REPRO_ANNOTATION_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert anncache.resolve_cache_dir(None) == tmp_path
        monkeypatch.setenv("REPRO_ANNOTATION_CACHE", str(tmp_path / "custom"))
        assert anncache.resolve_cache_dir(None) == tmp_path / "custom"

    def test_disabled_sentinel_beats_env_toggle(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ANNOTATION_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert anncache.resolve_cache_dir(anncache.DISABLED) is None
        # An annotation run with the sentinel must stay hermetic.
        library = cmos3.__wrapped__()
        report = library.annotate_hazards(
            exhaustive=True, cache_dir=anncache.DISABLED
        )
        assert report.source == "cold" and report.cache_path is None
        assert anncache.cache_entries(tmp_path) == []

    def test_payload_is_data_only_json(self, tmp_path):
        library = cmos3.__wrapped__()
        library.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        path = anncache.annotation_path(library, True, tmp_path)
        data = json.loads(path.read_text())  # parses as plain JSON
        assert data["cache_version"] == anncache.CACHE_VERSION
        assert set(data["analyses"]) == {c.name for c in library.cells}

    def test_fingerprint_is_computed_once_per_library(self):
        library = cmos3.__wrapped__()
        first = anncache.library_fingerprint(library)
        assert anncache.library_fingerprint(cmos3.__wrapped__()) == first
        # The hash is kept on the library: a later call renders no cell.
        library.cells = []
        assert anncache.library_fingerprint(library) == first

    def test_entries_and_clear(self, tmp_path):
        library = cmos3.__wrapped__()
        library.annotate_hazards(exhaustive=True, cache_dir=tmp_path)
        assert len(anncache.cache_entries(tmp_path)) == 1
        assert anncache.clear_annotation_cache(tmp_path) == 1
        assert anncache.cache_entries(tmp_path) == []

    def test_clear_sweeps_legacy_pickle_payloads(self, tmp_path):
        legacy = tmp_path / "annotations" / "v1" / "CMOS3-x-0123456789abcdef.pkl"
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(b"legacy pickled payload")
        assert anncache.cache_entries(tmp_path) == [legacy]
        assert anncache.clear_annotation_cache(tmp_path) == 1
        assert not legacy.exists()


class TestMappingConsistency:
    @pytest.fixture
    def mux_net(self):
        return Netlist.from_equations(MUX)

    def result_key(self, result):
        return (result.area, result.delay, result.cell_usage())

    def test_cold_and_disk_mappings_agree(self, tmp_path, mux_net):
        cold_lib = fresh_teaching_library()
        cold = async_tmap(
            mux_net,
            cold_lib,
            MappingOptions(annotation_cache_dir=str(tmp_path)),
        )
        assert cold.annotation_report.source == "cold"

        # Disk-warm: annotations replayed from the cache directory.
        disk = async_tmap(
            mux_net,
            fresh_teaching_library(),
            MappingOptions(annotation_cache_dir=str(tmp_path)),
        )
        assert disk.annotation_report.source == "disk"

        assert self.result_key(cold) == self.result_key(disk)

    def test_filter_verdicts_survive_cache_round_trips(self, tmp_path, mux_net):
        """The screened-cell decision (MUX21 admitted) is identical on
        repeated runs and on the disk-warm path."""
        for options in (
            MappingOptions(),
            MappingOptions(),
            MappingOptions(annotation_cache_dir=str(tmp_path)),
            MappingOptions(annotation_cache_dir=str(tmp_path)),
        ):
            result = async_tmap(mux_net, fresh_teaching_library(), options)
            assert result.stats.hazard_accepts >= 1
            assert "MUX21" in result.cell_usage()
