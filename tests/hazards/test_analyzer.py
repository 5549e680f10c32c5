"""Tests for the one-call analyzer and the section-3.2.2 matching filter."""

import random

from hypothesis import given, settings

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.expr import parse
from repro.boolean.paths import label_expression
from repro.hazards.analyzer import (
    HazardAnalysis,
    analyze_cover,
    analyze_expression,
    hazards_subset,
)
from repro.hazards.oracle import hazard_subset

from ..conftest import cover_strategy

MUXN = ["a", "b", "s"]


class TestAnalyze:
    def test_hazard_free_expression(self):
        analysis = analyze_expression(parse("(a*b + c)'"))
        assert not analysis.has_hazards
        assert analysis.summary().hazard_free

    def test_mux_analysis(self):
        analysis = analyze_expression(parse("s'*a + s*b"))
        assert analysis.has_hazards
        assert analysis.summary().static1 == 1

    def test_describe_lines(self):
        analysis = analyze_expression(parse("s'*a + s*b"))
        lines = analysis.describe()
        assert any("static-1" in line for line in lines)

    def test_exhaustive_verdicts_cached(self):
        analysis = analyze_expression(parse("s'*a + s*b"), exhaustive=True)
        assert analysis.verdicts is not None
        assert analysis.ensure_verdicts() is analysis.verdicts

    def test_verdicts_none_for_oversized(self):
        wide = " + ".join(f"x{i}*y{i}" for i in range(5))
        analysis = analyze_expression(parse(wide))
        assert analysis.ensure_verdicts() is None


def records(analysis):
    return (
        analysis.static1,
        analysis.static0,
        analysis.mic_dynamic,
        analysis.sic_dynamic,
    )


class TestRecordsOnFirstRead:
    """An analysis built from its labelled SOP alone derives the
    section-4 record lists when one is first read: the same lists
    ``analyze_expression`` computes up front."""

    def test_derived_records_equal_the_eager_ones(self):
        for text in [
            "s'*a + s*b",
            "(s + b)*(s' + a)",
            "(w + x')*(w' + y)*(x + z)",
            "s*a + s'*(b + s*c)",
        ]:
            expr = parse(text)
            names = sorted(expr.support())
            eager = analyze_expression(expr, names)
            lazy = HazardAnalysis(names, label_expression(expr, names))
            assert eager.records_computed
            assert not lazy.records_computed
            assert records(lazy) == records(eager), text
            assert lazy.records_computed

    def test_only_the_record_filter_computes_them(self):
        # A static-0 hazard (the vacuous s*s' product): the record filter
        # must read the target's static-0 records.
        expr = parse("(s + b)*(s' + a)")
        cell = analyze_expression(expr, MUXN, exhaustive=True)
        assert cell.static0
        target = HazardAnalysis(MUXN, label_expression(expr, MUXN))
        assert hazards_subset(cell, target)
        assert not target.records_computed  # exact: the labelled SOP only
        assert hazards_subset(cell, target, mode="paper")
        assert target.records_computed

    def test_a_cell_too_wide_for_verdicts_reads_them(self):
        # No exhaustive verdicts past EXHAUSTIVE_MAX_VARS inputs, so the
        # exact filter falls back to the record lists.
        expr = parse(" + ".join(f"(s{i} + b{i})*(s{i}' + a{i})" for i in range(3)))
        names = sorted(expr.support())
        cell = analyze_expression(expr, names, exhaustive=True)
        assert cell.ensure_verdicts() is None
        target = HazardAnalysis(names, label_expression(expr, names))
        assert hazards_subset(cell, target)
        assert target.records_computed
        assert records(target) == records(analyze_expression(expr, names))


class TestFilterBasics:
    def test_hazard_free_cell_always_subset(self):
        cell = analyze_expression(parse("a*b"))
        target = analyze_cover(
            Cover.from_strings(["ab"], ["a", "b"]), ["a", "b"]
        )
        assert hazards_subset(cell, target)

    def test_figure3_mux_rejected_against_hazard_free_subnetwork(self):
        # The Figure-3 situation: the cluster implements mux plus
        # consensus (hazard-free); the 2-cube mux cell must be rejected.
        cell = analyze_expression(parse("s'*a + s*b"), exhaustive=True)
        target = analyze_expression(parse("s'*a + s*b + a*b"))
        assert not hazards_subset(cell, target)

    def test_mux_accepted_against_equally_hazardous_subnetwork(self):
        cell = analyze_expression(parse("s'*a + s*b"), exhaustive=True)
        target = analyze_expression(parse("s'*a + s*b"))
        assert hazards_subset(cell, target)

    def test_pin_mapping_respected(self):
        # Cell over (a, b, s); target over (x, y, z) with s -> z etc.
        cell = analyze_expression(parse("s'*a + s*b"), exhaustive=True)
        target = analyze_expression(parse("z'*x + z*y"))
        # cell pins sorted: a, b, s; target names sorted: x, y, z
        mapping = [0, 1, 2]  # a->x, b->y, s->z
        assert hazards_subset(cell, target, mapping=mapping)

    def test_paper_mode_available(self):
        cell = analyze_expression(parse("s'*a + s*b"))
        target = analyze_expression(parse("s'*a + s*b + a*b"))
        assert not hazards_subset(cell, target, mode="paper")


class TestFilterAgainstOracle:
    @given(cover_strategy(4, max_cubes=4))
    @settings(max_examples=40, deadline=None)
    def test_exact_filter_matches_exhaustive_oracle(self, cover):
        rng = random.Random(cover.truth_table() & 0xFFFF)
        cover = cover.dedup()
        names = ["a", "b", "c", "d"]
        variants = [
            Cover(cover.all_primes(), 4),
            cover.irredundant(),
            Cover(list(cover.cubes)[::-1], 4),
        ]
        other = variants[rng.randrange(len(variants))]
        if not cover.cubes or not other.cubes:
            return
        a1 = analyze_cover(cover, names)
        a2 = analyze_cover(other, names)
        fast = hazards_subset(a1, a2)
        slow = hazard_subset(a1.lsop, a2.lsop)
        assert fast == slow

    @given(cover_strategy(4, max_cubes=3))
    @settings(max_examples=25, deadline=None)
    def test_filter_reflexive(self, cover):
        analysis = analyze_cover(cover.dedup(), ["a", "b", "c", "d"])
        assert hazards_subset(analysis, analysis)

    def test_multilevel_cell_vs_sop_target(self):
        # A hazard-free factored cell against any same-function target
        # is always acceptable (Corollary 3.1).
        cell = analyze_expression(parse("(w + x)*y"), exhaustive=True)
        target = analyze_expression(parse("w*y + x*y"))
        assert hazards_subset(cell, target)
        # The reverse: the SOP structure has a dynamic hazard the
        # factored target lacks.
        cell2 = analyze_expression(parse("w*y + x*y"), exhaustive=True)
        target2 = analyze_expression(parse("(w + x)*y"))
        assert not hazards_subset(cell2, target2)
