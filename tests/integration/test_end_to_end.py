"""End-to-end integration: burst-mode spec → synthesis → mapping → proof.

This is the paper's complete story: a hazard-free technology-independent
design (section 2's front end) run through ``async_tmap`` yields an
implementation whose logic hazards are a subset of the source's
(Theorem 3.2) — in particular it stays hazard-free for every specified
input burst, which the synchronous mapper does *not* guarantee.
"""

import pytest

from repro.boolean.paths import label_expression
from repro.burstmode.benchmarks import synthesize_benchmark
from repro.conformance import certify_mapping
from repro.hazards.oracle import classify_transition
from repro.library import cmos3, lsi9k, minimal_teaching_library
from repro.mapping.mapper import async_tmap, tmap

SMALL_BENCHMARKS = ["chu-ad-opt", "vanbek-opt", "dme", "dme-opt"]


@pytest.fixture(scope="module")
def mini():
    library = minimal_teaching_library()
    if not library.annotated:
        library.annotate_hazards()
    return library


class TestAsyncPipeline:
    @pytest.mark.parametrize("name", SMALL_BENCHMARKS)
    def test_mapped_network_is_equivalent_and_hazard_safe(self, name, mini):
        synthesis = synthesize_benchmark(name)
        net = synthesis.netlist(name)
        result = async_tmap(net, mini)
        certificate = certify_mapping(net, result.mapped, mini)
        assert certificate.certified, (name, certificate.violations[:3])

    @pytest.mark.parametrize("name", SMALL_BENCHMARKS)
    def test_specified_transitions_stay_hazard_free_after_mapping(
        self, name, mini
    ):
        """The user-visible guarantee: every specified burst of the
        burst-mode machine is still glitch-free in the mapped gates."""
        synthesis = synthesize_benchmark(name)
        net = synthesis.netlist(name)
        result = async_tmap(net, mini)
        order = synthesis.variables
        for target in synthesis.equations:
            lsop = label_expression(result.mapped.collapse(target), order)
            for spec_t in synthesis.transitions[target]:
                verdict = classify_transition(lsop, spec_t.start, spec_t.end)
                assert not verdict.logic_hazard, (name, target, spec_t)

    def test_real_library_run(self):
        library = cmos3()
        if not library.annotated:
            library.annotate_hazards()
        synthesis = synthesize_benchmark("chu-ad-opt")
        net = synthesis.netlist("chu-ad-opt")
        result = async_tmap(net, library)
        certificate = certify_mapping(net, result.mapped, library)
        assert certificate.certified, certificate.violations[:3]
        assert result.area > 0


class TestSyncBaselineContrast:
    def test_sync_mapper_breaks_a_consensus_bearing_design(self, mini):
        """The paper's motivating observation (Figure 3): on a design
        whose hazard-free cover requires a redundant consensus cube,
        the synchronous flow introduces a logic hazard; the async flow
        never does."""
        from repro.network.netlist import Netlist

        net = Netlist.from_equations(
            {"f": "s*a + s'*b + a*b", "g": "x*c + x'*d + c*d"}
        )
        sync_cert = certify_mapping(net, tmap(net, mini).mapped, mini)
        async_cert = certify_mapping(net, async_tmap(net, mini).mapped, mini)
        assert async_cert.certified
        assert sync_cert.equivalent
        assert not sync_cert.hazard_safe

    def test_async_never_breaks_the_benchmarks(self, mini):
        for name in SMALL_BENCHMARKS:
            synthesis = synthesize_benchmark(name)
            net = synthesis.netlist(name)
            async_cert = certify_mapping(
                net, async_tmap(net, mini).mapped, mini
            )
            assert async_cert.certified, (name, async_cert.violations[:3])

    def test_async_area_premium_is_bounded(self, mini):
        """The async cover pays for the hazard constraints, but only
        moderately (Table 3's ~13 % flavour)."""
        for name in SMALL_BENCHMARKS:
            synthesis = synthesize_benchmark(name)
            net = synthesis.netlist(name)
            sync_area = tmap(net, mini).area
            async_area = async_tmap(net, mini).area
            assert async_area <= 2.0 * sync_area


class TestLsiSmoke:
    def test_lsi_maps_a_midsize_controller(self):
        library = lsi9k()
        if not library.annotated:
            library.annotate_hazards()
        synthesis = synthesize_benchmark("dme-fast-opt")
        net = synthesis.netlist("dme-fast-opt")
        result = async_tmap(net, library)
        assert result.mapped.equivalent(net)
        assert result.stats.matches > 0
