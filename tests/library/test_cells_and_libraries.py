"""Tests for cells, libraries, and the hazard-annotation pass."""

import pytest

from repro.boolean import truthtable as tt
from repro.library.cell import LibraryCell
from repro.library.library import Library


class TestLibraryCell:
    def test_from_text_defaults(self):
        cell = LibraryCell.from_text("AOI21", "(a*b + c)'", delay=1.2)
        assert cell.pins == ["a", "b", "c"]
        assert cell.area == 3.0  # pulldown transistor count

    def test_explicit_pin_order(self):
        cell = LibraryCell.from_text(
            "MUX", "s'*a + s*b", delay=1.0, pins=["s", "a", "b"]
        )
        assert cell.pins == ["s", "a", "b"]

    def test_undeclared_pin_rejected(self):
        with pytest.raises(ValueError):
            LibraryCell.from_text("BAD", "a*b", delay=1.0, pins=["a"])

    def test_truth_table_matches_expression(self):
        cell = LibraryCell.from_text("OAI21", "((a + b)*c)'", delay=1.0)
        table = cell.truth_table()
        for point in range(8):
            env = {p: bool(point >> i & 1) for i, p in enumerate(cell.pins)}
            assert tt.evaluate(table, point) == cell.expression.evaluate(env)

    def test_is_hazardous_requires_annotation(self):
        cell = LibraryCell.from_text("AND2", "a*b", delay=1.0)
        with pytest.raises(RuntimeError):
            __ = cell.is_hazardous
        cell.annotate()
        assert not cell.is_hazardous

    def test_is_hazardous_follows_the_attached_analysis(self):
        mux = LibraryCell.from_text("MUX21", "s'*a + s*b", delay=1.0)
        and2 = LibraryCell.from_text("AND2", "a*b", delay=1.0)
        mux.annotate()
        assert mux.is_hazardous
        mux.analysis = and2.annotate()
        assert not mux.is_hazardous
        mux.analysis = None
        with pytest.raises(RuntimeError):
            __ = mux.is_hazardous

    def test_mux_cell_is_hazardous(self):
        cell = LibraryCell.from_text("MUX21", "s'*a + s*b", delay=1.0)
        cell.annotate()
        assert cell.is_hazardous


class TestLibrary:
    def make_library(self):
        return Library.from_spec(
            "T",
            [
                ("INV", "a'", None, 0.5),
                ("AND2", "a*b", None, 1.0),
                ("OR2", "a + b", None, 1.0),
                ("MUX21", "s'*a + s*b", None, 1.5, "mux"),
            ],
        )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Library.from_spec(
                "D", [("X", "a", None, 1.0), ("X", "a'", None, 1.0)]
            )

    def test_by_pin_count(self):
        lib = self.make_library()
        assert {c.name for c in lib.by_pin_count(2)} == {"AND2", "OR2"}
        assert {c.name for c in lib.by_pin_count(3)} == {"MUX21"}

    def test_candidates_signature_filter(self):
        lib = self.make_library()
        and_table = tt.from_callable(lambda p: p == 3, 2)
        names = {c.name for c in lib.candidates(and_table, 2)}
        assert "AND2" in names
        assert "OR2" not in names

    def test_annotation_report(self):
        lib = self.make_library()
        report = lib.annotate_hazards()
        assert report.cells == 4
        assert report.hazardous == 1
        assert report.hazardous_fraction == pytest.approx(0.25)
        assert lib.annotated

    def test_census(self):
        lib = self.make_library()
        census = lib.census()
        assert census["hazardous"] == 1
        assert census["total"] == 4
        assert census["hazardous_families"] == ["mux"]

    def test_cell_lookup(self):
        lib = self.make_library()
        assert lib.cell("INV").name == "INV"
        with pytest.raises(KeyError):
            lib.cell("MISSING")

    def test_duplicate_error_names_the_cell(self):
        with pytest.raises(ValueError, match="AND2"):
            Library.from_spec(
                "D", [("AND2", "a*b", None, 1.0), ("AND2", "a+b", None, 1.0)]
            )

    def test_cell_wider_than_truth_tables_is_rejected(self):
        pins = [f"p{i}" for i in range(tt.TT_MAX_VARS + 1)]
        wide = LibraryCell.from_text("AND15", "*".join(pins))
        with pytest.raises(ValueError, match="AND15"):
            Library("W", [LibraryCell.from_text("INV", "a'"), wide])
        widest = LibraryCell.from_text("AND14", "*".join(pins[:-1]))
        assert Library("W", [widest]).max_pins == tt.TT_MAX_VARS

    def test_name_index_covers_every_cell(self):
        lib = self.make_library()
        for cell in lib:
            assert lib.cell(cell.name) is cell

    def test_index_lookups_are_consistent_across_threads(self):
        # Daemon request threads read one library's indexes at once;
        # every reader must see them complete.
        from concurrent.futures import ThreadPoolExecutor

        and_table = tt.from_callable(lambda p: p == 3, 2)

        def probe(lib):
            return (
                {c.name for c in lib.candidates(and_table, 2)},
                {c.name for c in lib.by_pin_count(2)},
            )

        for _ in range(20):
            lib = self.make_library()
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(probe, [lib] * 8))
            for names, by_pins in outcomes:
                assert "AND2" in names and "OR2" not in names
                assert by_pins == {"AND2", "OR2"}
