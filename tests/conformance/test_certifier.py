"""The independent certifier: accept real mappings, reject broken ones.

Every rejection here is cross-checked by replaying the certificate's
counterexample on the event simulator *outside* the certifier — the
evidence must stand on its own, not just the verdict.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.boolean.paths import label_expression
from repro.conformance import certify_mapping
from repro.conformance import certifier as certifier_module
from repro.hazards.witness import HazardWitness, replay_witness
from repro.library import anncache
from repro.library.standard import load_library
from repro.mapping.mapper import MappingOptions, async_tmap, map_network
from repro.network.netlist import Netlist
from repro.obs.export import CERT_SCHEMA
from repro.obs.metrics import MetricsRegistry
from repro.testing.faults import seed_hazard

DEPTH = 3


@pytest.fixture(scope="module")
def cmos3():
    library = load_library("CMOS3")
    if not library.annotated:
        library.annotate_hazards()
    return library


def _map_catalog(name: str, library):
    from repro.burstmode.benchmarks import synthesize_benchmark

    source = synthesize_benchmark(name).netlist(name)
    options = MappingOptions(
        max_depth=DEPTH, annotation_cache_dir=anncache.DISABLED
    )
    return source, map_network(source, library, options).mapped


class TestAccept:
    def test_certifies_real_mapping(self, cmos3):
        source, mapped = _map_catalog("chu-ad-opt", cmos3)
        certificate = certify_mapping(source, mapped, cmos3)
        assert certificate.certified
        assert certificate.verdict == "certified"
        assert certificate.equivalent and certificate.hazard_safe
        assert certificate.interface_ok and certificate.cells_ok
        assert certificate.outputs_checked == len(source.outputs)
        assert certificate.transitions_checked > 0
        assert not certificate.violations

        # Non-vacuity: the same netlist with one planted Theorem 3.2
        # violation is rejected, and its refutation glitches on replay.
        seeded = seed_hazard(mapped, reference=source, seed=0)
        assert seeded is not None
        rejected = certify_mapping(source, seeded.netlist, cmos3)
        assert not rejected.certified
        refutations = [
            cx for cx in rejected.counterexamples if not cx.source_hazard
        ]
        assert refutations and refutations[0].replay["glitched"] is True

    def test_certificate_payload_is_stamped(self, cmos3):
        source, mapped = _map_catalog("chu-ad-opt", cmos3)
        payload = certify_mapping(source, mapped, cmos3).to_dict()
        assert payload["schema"] == CERT_SCHEMA
        assert payload["verdict"] == "certified"
        assert len(payload["evidence_digest"]) == 64
        assert payload["outputs"], "per-output evidence must be present"
        for evidence in payload["outputs"]:
            assert len(evidence["digest"]) == 64
            assert evidence["method"] in ("exhaustive", "sampled")

    def test_metrics_are_recorded(self, cmos3):
        source, mapped = _map_catalog("vanbek-opt", cmos3)
        metrics = MetricsRegistry()
        certify_mapping(source, mapped, cmos3, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["conformance.certificates"]["value"] == 1
        assert snapshot["conformance.outputs_checked"]["value"] > 0
        assert snapshot["conformance.certify_seconds"]["count"] == 1
        assert "conformance.rejections" not in snapshot or (
            snapshot["conformance.rejections"]["value"] == 0
        )

    def test_identical_network_certifies(self):
        net = Netlist.from_equations({"f": "a*b + c"})
        certificate = certify_mapping(net, net.copy())
        assert certificate.certified
        assert certificate.transitions_checked > 0

    def test_true_hazard_reduction_certifies(self):
        # A single complex gate has no logic hazards at all — replacing
        # the two-gate structure with it is always legal.
        risky = Netlist.from_equations({"f": "(w*y + x*y)"})
        single = Netlist.from_equations({"f": "(w + x)*y"})
        assert certify_mapping(risky, single).certified

    def test_async_mapping_always_certifies(self, mini_library):
        for text in ("a*b + c'*d", "s*a + s'*b + a*b", "(a + b)*(c + d)"):
            net = Netlist.from_equations({"f": text})
            result = async_tmap(net, mini_library)
            certificate = certify_mapping(net, result.mapped, mini_library)
            assert certificate.certified, (text, certificate.violations)

    def test_sampled_path_for_wide_supports(self):
        # Every output has a 3-variable support; a limit of 2 forces the
        # seeded sample on all four, ``samples`` transitions each, and
        # the fallback is counted rather than silent.
        net = Netlist.from_equations(
            {f"f{i}": f"x{i}*y{i} + x{i}'*z{i}" for i in range(4)}
        )
        metrics = MetricsRegistry()
        certificate = certify_mapping(
            net, net.copy(), exhaustive_limit=2, samples=50, metrics=metrics
        )
        assert certificate.certified
        assert {e.method for e in certificate.outputs} == {"sampled"}
        assert certificate.transitions_checked == 4 * 50
        snapshot = metrics.snapshot()
        assert snapshot["conformance.outputs_sampled"]["value"] == 4
        assert snapshot["conformance.outputs_checked"]["value"] == 4


class TestReject:
    def test_new_hazard_rejected_with_replayable_counterexample(self):
        # b + b'·c computes the same function as b + c but carries the
        # textbook static-1 hazard on the b-toggle at c=1 (paper §3).
        source = Netlist.from_equations({"f": "b + c"}, name="spec")
        mapped = Netlist.from_equations({"f": "b + b' * c"}, name="bad")
        certificate = certify_mapping(source, mapped)
        assert not certificate.certified
        assert certificate.verdict == "rejected"
        assert certificate.equivalent  # function is right, hazard is new
        assert not certificate.hazard_safe
        refutations = [
            cx for cx in certificate.counterexamples if not cx.source_hazard
        ]
        assert refutations, "a rejection must carry a refutation"
        # Independent replay: the witness must glitch on the event
        # simulator when driven through the mapped network's own
        # path-labelled structure.
        cx = refutations[0]
        assert cx.replay["glitched"] is True
        lsop = label_expression(
            mapped.collapse("f"), list(cx.support)
        )
        witness = HazardWitness.from_dict(cx.witness)
        replay = replay_witness(lsop, witness, output="f")
        assert replay.glitched
        assert replay.changes > replay.expected

    def test_one_checked_refutation_per_output_and_kind(self):
        # The Shannon form a·1 + a'·(b + c + d) of a hazard-free OR glitches
        # on every a-toggle that b, c or d holds high: many new static-1
        # hazards (and some dynamic ones), all absent from the source.
        source = Netlist.from_equations({"f": "a + b + c + d"}, name="spec")
        mapped = Netlist.from_equations(
            {"f": "a + a' * b + a' * c + a' * d"}, name="shannon"
        )
        certificate = certify_mapping(source, mapped)
        (evidence,) = certificate.outputs
        new_kinds = {
            kind: count for kind, count in evidence.kind_counts.items() if count
        }
        assert evidence.shared_hazards == 0
        assert new_kinds["static-1"] > 10
        assert evidence.new_hazards == sum(new_kinds.values())
        # Every new hazard is replayed and glitches ...
        assert evidence.replays == certificate.replays == evidence.new_hazards
        assert not any("checker fault" in v for v in certificate.violations)
        # ... but each kind carries one counterexample and one violation.
        refutations = [
            cx for cx in certificate.counterexamples if not cx.source_hazard
        ]
        assert sorted(cx.witness["kind"] for cx in refutations) == sorted(
            new_kinds
        )
        assert all(cx.replay["glitched"] for cx in refutations)
        assert len(certificate.violations) == len(new_kinds)
        first = HazardWitness.from_dict(
            next(cx.witness for cx in refutations
                 if cx.witness["kind"] == "static-1")
        )
        assert (
            f"output f: {new_kinds['static-1']} new static-1 hazards, first "
            f"on {first.transition_string()} (not in source)"
        ) in certificate.violations

    def test_new_hazard_replay_that_does_not_glitch_is_a_checker_fault(
        self, monkeypatch
    ):
        def no_glitch(*args, **kwargs):
            return dataclasses.replace(
                replay_witness(*args, **kwargs), glitched=False
            )

        monkeypatch.setattr(certifier_module, "replay_witness", no_glitch)
        source = Netlist.from_equations({"f": "b + c"}, name="spec")
        mapped = Netlist.from_equations({"f": "b + b' * c"}, name="bad")
        certificate = certify_mapping(source, mapped)
        assert not certificate.hazard_safe
        assert any("checker fault" in v for v in certificate.violations)

    def test_new_hazard_detected_exhaustively(self):
        # Dropping the consensus cube a·b of a hazard-free mux brings
        # back the static-1 hazard on the s-toggle.
        safe = Netlist.from_equations({"f": "s*a + s'*b + a*b"})
        risky = Netlist.from_equations({"f": "s*a + s'*b"})
        certificate = certify_mapping(safe, risky)
        assert {e.method for e in certificate.outputs} == {"exhaustive"}
        assert certificate.equivalent
        assert not certificate.hazard_safe
        assert any("static-1" in v for v in certificate.violations)

    def test_inequivalent_mapping_rejected(self):
        source = Netlist.from_equations({"f": "b + c"}, name="spec")
        mapped = Netlist.from_equations({"f": "b * c"}, name="wrong")
        certificate = certify_mapping(source, mapped)
        assert not certificate.certified
        assert not certificate.equivalent
        assert any("functional mismatch" in v for v in certificate.violations)

    def test_functional_mismatch_detected(self):
        net = Netlist.from_equations({"f": "a*b"})
        wrong = Netlist.from_equations({"f": "a + b"})
        certificate = certify_mapping(net, wrong)
        assert not certificate.equivalent
        assert any("functional mismatch" in v for v in certificate.violations)

    def test_hazard_trade_is_not_a_subset(self):
        # Subtle but correct: adding the consensus cube removes the
        # static-1 hazard yet *introduces* m.i.c. dynamic hazards (the
        # new cube intersections can pulse).  Replacement legality is
        # subset-of-hazards, not fewer-hazards — Theorem 3.2 verbatim.
        risky = Netlist.from_equations({"f": "s*a + s'*b"})
        safe = Netlist.from_equations({"f": "s*a + s'*b + a*b"})
        certificate = certify_mapping(risky, safe)
        assert certificate.equivalent
        assert not certificate.hazard_safe
        assert any("dynamic" in v for v in certificate.violations)

    def test_sampled_path_catches_gross_hazard(self):
        equations = {
            "f": "s*a + s'*b + a*b",
            "g0": "p0*q0", "g1": "p1*q1", "g2": "p2*q2",
            "g3": "p3*q3", "g4": "p4*q4",
        }
        net = Netlist.from_equations(equations)
        broken = Netlist.from_equations(dict(equations, f="s*a + s'*b"))
        certificate = certify_mapping(
            net, broken, exhaustive_limit=2, samples=400
        )
        evidence = {e.output: e for e in certificate.outputs}
        assert evidence["f"].method == "sampled"
        assert certificate.equivalent
        assert not certificate.hazard_safe

    def test_interface_mismatch_rejected(self):
        source = Netlist.from_equations(
            {"f": "a + b", "g": "a * b"}, name="spec"
        )
        mapped = Netlist.from_equations({"f": "a + b"}, name="partial")
        certificate = certify_mapping(source, mapped)
        assert not certificate.certified
        assert not certificate.interface_ok

    def test_bad_cell_binding_rejected(self, cmos3):
        source, mapped = _map_catalog("chu-ad-opt", cmos3)
        tampered = mapped.copy("tampered")
        victim = next(
            node for node in tampered.gates() if node.cell is not None
        )
        # Rebind the gate to a cell whose function cannot match its own.
        wrong = (
            cmos3.cell("INV_1X")
            if victim.cell.name != "INV_1X"
            else cmos3.cell("AND2")
        )
        victim.cell = wrong
        certificate = certify_mapping(source, tampered, cmos3)
        assert not certificate.certified
        assert not certificate.cells_ok


class TestWitnessNodeNames:
    """The replay circuit's internal nodes never take a design's signal
    names: a design whose input or output is named like a wire, product
    or OR node certifies like any other."""

    #: (signal of ``f = a·b + a'·c``, the name it takes): fixed node
    #: names, and the first name the fresh-name scheme reaches.
    RENAMES = [
        ("a", "_or"),
        ("a", "_p0"),
        ("c", "_w_b_0"),
        ("f", "_or"),
        ("f", "_p1"),
        ("a", "_w1"),
        ("f", "_w1"),
    ]

    @staticmethod
    def certify(names: dict[str, str], source: str):
        def rename(text: str) -> str:
            return "".join(names.get(ch, ch) for ch in text)

        mapped = Netlist.from_equations({names["f"]: rename("a*b + a'*c")})
        spec = Netlist.from_equations({names["f"]: rename(source)})
        return certify_mapping(spec, mapped)

    @pytest.mark.parametrize("signal,name", RENAMES)
    @pytest.mark.parametrize(
        # The consensus form rejects the mapping for a new hazard; the
        # same form certifies it with shared-hazard replays.
        "source", ["a*b + a'*c + b*c", "a*b + a'*c"]
    )
    def test_colliding_names_certify_like_plain_ones(self, signal, name, source):
        plain = {ch: ch for ch in "abcf"}
        expected = self.certify(plain, source)
        assert expected.replays > 0
        certificate = self.certify({**plain, signal: name}, source)
        assert certificate.verdict == expected.verdict
        assert certificate.replays == expected.replays
        assert certificate.transitions_checked == expected.transitions_checked


class TestDeterminism:
    def test_evidence_digest_is_reproducible(self, cmos3):
        source, mapped = _map_catalog("vanbek-opt", cmos3)
        first = certify_mapping(source, mapped, cmos3, seed=5)
        second = certify_mapping(source, mapped, cmos3, seed=5)
        assert first.evidence_digest == second.evidence_digest
        assert [e.digest for e in first.outputs] == [
            e.digest for e in second.outputs
        ]

    def test_seed_changes_sampled_evidence_only_deterministically(
        self, cmos3
    ):
        source, mapped = _map_catalog("chu-ad-opt", cmos3)
        a = certify_mapping(source, mapped, cmos3, seed=1)
        b = certify_mapping(source, mapped, cmos3, seed=1)
        assert a.evidence_digest == b.evidence_digest


class TestTrustModel:
    def test_certifier_has_no_mapper_imports(self):
        """The checker must share no code with what it checks."""
        source = inspect.getsource(certifier_module)
        for forbidden in (
            "mapping.cover",
            "mapping.match",
            "mapping.verify",
            "mapping.mapper",
            "hazards.cache",
            "from ..mapping",
        ):
            assert forbidden not in source, (
                f"certifier must not reference {forbidden!r}"
            )
