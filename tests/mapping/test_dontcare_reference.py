"""Tests for the hazard-don't-care extension and the hand-style reference."""

from repro.boolean.paths import label_expression
from repro.burstmode.benchmarks import synthesize_benchmark
from repro.hazards.oracle import classify_transition
from repro.library import actel_act1, minimal_teaching_library
from repro.mapping.dontcare import HazardDontCares, InputBurst, synthesis_bursts
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.mapping.reference import hand_style_reference
from repro.network.decompose import async_tech_decomp
from repro.network.netlist import Netlist


class TestHazardDontCares:
    def test_leaf_spaces_fix_stable_signals(self):
        net = Netlist.from_equations({"f": "a*b + c"})
        decomposed = async_tech_decomp(net)
        bursts = [
            InputBurst({"a": False, "b": True, "c": False},
                       {"a": True, "b": True, "c": False})
        ]
        dc = HazardDontCares(decomposed, bursts)
        spaces = dc.leaf_spaces(["a", "b", "c"])
        assert len(spaces) == 1
        # b and c are stable, a changes.
        assert spaces[0].to_string(["a", "b", "c"]) == "bc'"

    def test_relevant_transition_inside_burst(self):
        net = Netlist.from_equations({"f": "a*b + c"})
        decomposed = async_tech_decomp(net)
        bursts = [
            InputBurst({"a": False, "b": True, "c": False},
                       {"a": True, "b": True, "c": False})
        ]
        dc = HazardDontCares(decomposed, bursts)
        # a changes with b=1, c=0: relevant
        assert dc.relevant(["a", "b", "c"], 0b010, 0b011)
        # c changing is never specified: irrelevant
        assert not dc.relevant(["a", "b", "c"], 0b010, 0b110)

    def test_synthesis_bursts_deduplicated(self):
        synthesis = synthesize_benchmark("dme")
        bursts = synthesis_bursts(synthesis)
        keys = {(tuple(sorted(b.start.items())), tuple(sorted(b.end.items())))
                for b in bursts}
        assert len(keys) == len(bursts)

    def test_dc_mapping_waives_and_stays_clean(self):
        library = actel_act1()
        if not library.annotated:
            library.annotate_hazards()
        synthesis = synthesize_benchmark("dme-fast")
        net = synthesis.netlist("dme-fast")
        plain = async_tmap(net, library)
        relaxed = async_tmap(
            net, library, MappingOptions(input_bursts=synthesis_bursts(synthesis))
        )
        assert relaxed.mapped.equivalent(net)
        assert relaxed.stats.dc_waivers > 0
        assert relaxed.area <= plain.area
        # The exact guarantee: every specified burst replays clean on
        # the mapped structure.
        for target in synthesis.equations:
            lsop = label_expression(
                relaxed.mapped.collapse(target), synthesis.variables
            )
            for spec_t in synthesis.transitions[target]:
                verdict = classify_transition(lsop, spec_t.start, spec_t.end)
                assert not verdict.logic_hazard, (target, spec_t)

    def test_no_bursts_means_no_waivers(self):
        library = actel_act1()
        if not library.annotated:
            library.annotate_hazards()
        net = synthesize_benchmark("dme-fast").netlist("dme-fast")
        result = async_tmap(net, library)
        assert result.stats.dc_waivers == 0


class TestHandStyleReference:
    def test_reference_is_depth_one(self, mini_library):
        net = Netlist.from_equations({"f": "a*b*c + d'"})
        reference = hand_style_reference(net, mini_library)
        assert reference.mode == "hand-style"
        # every selection replaces exactly one base gate
        for cover in reference.covers:
            for selection in cover.selections:
                assert selection.cluster.depth <= 1

    def test_auto_never_worse_than_reference(self, mini_library):
        for name in ("chu-ad-opt", "dme", "vanbek-opt"):
            net = synthesize_benchmark(name).netlist(name)
            reference = hand_style_reference(net, mini_library)
            auto = async_tmap(net, mini_library)
            assert auto.area <= reference.area, name

    def test_reference_is_hazard_safe(self, mini_library):
        from repro.conformance import certify_mapping

        net = Netlist.from_equations({"f": "s*a + s'*b + a*b"})
        reference = hand_style_reference(net, mini_library)
        assert certify_mapping(net, reference.mapped, mini_library).certified
