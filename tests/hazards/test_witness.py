"""Witness materialization and event-simulator replay, all four classes.

Every §4 hazard record must be able to produce a concrete input burst
(:class:`~repro.hazards.witness.HazardWitness`) that *provably glitches*
when replayed on :mod:`repro.network.eventsim` — the property that turns
the explain layer's rejection reasons into evidence.

Exemplars (each the canonical textbook instance of its class):

* static-1       — ``ab + a'c`` (the uncovered consensus ``bc``);
* static-0       — ``(a+b)*(a'+c)`` (vacuous term ``a·a'`` pulses);
* dynamic m.i.c. — the Figure-8 cover ``w'xz + w'xy + xyz``;
* dynamic s.i.c. — ``s*a + s'*(b + s*c)``, whose distributed labelled
  form keeps a *private* raising path ``s#2`` (path sharing would
  otherwise mask the pulse — see test below).
"""

from __future__ import annotations

import pytest

from repro.boolean.cover import Cover
from repro.boolean.expr import parse
from repro.boolean.paths import label_cover, label_expression
from repro.hazards.analyzer import analyze_cover, analyze_expression
from repro.hazards.multilevel import transition_has_hazard
from repro.hazards.oracle import TransitionKind, hazardous_transitions
from repro.hazards.witness import (
    ALL_KINDS,
    KIND_MIC,
    KIND_SIC,
    KIND_STATIC0,
    KIND_STATIC1,
    HazardWitness,
    WitnessCircuit,
    analysis_witnesses,
    glitch_schedule,
    replay_witness,
    verify_witness,
    witness_for_record,
    witness_netlist,
)

from .test_oracle_reference import SHALLOW, random_lsops


def _witnesses_of_kind(analysis, kind):
    return [
        (record, witness)
        for record, witness in analysis_witnesses(analysis)
        if witness.kind == kind
    ]


class TestStatic1Witness:
    def test_witness_replays_to_glitch(self):
        analysis = analyze_expression(parse("a*b + a'*c"))
        pairs = _witnesses_of_kind(analysis, KIND_STATIC1)
        assert pairs
        for record, witness in pairs:
            assert witness.expected_changes == 0
            replay = replay_witness(analysis.lsop, witness)
            assert replay.glitched, replay.describe()
            assert replay.changes > 0
            assert replay.expected == 0

    def test_record_transition_confirmed_by_lattice(self):
        analysis = analyze_expression(parse("a*b + a'*c"))
        for record, witness in _witnesses_of_kind(analysis, KIND_STATIC1):
            assert transition_has_hazard(
                analysis.lsop, witness.start, witness.end
            )


class TestStatic0Witness:
    def test_witness_replays_to_glitch(self):
        analysis = analyze_expression(parse("(a + b)*(a' + c)"))
        pairs = _witnesses_of_kind(analysis, KIND_STATIC0)
        assert pairs
        for record, witness in pairs:
            assert witness.expected_changes == 0
            replay = replay_witness(analysis.lsop, witness)
            assert replay.glitched, replay.describe()


class TestMicDynamicWitness:
    def test_witness_replays_to_glitch(self):
        cover = Cover.from_strings(
            ["w'xz", "w'xy", "xyz"], ["w", "x", "y", "z"]
        )
        analysis = analyze_cover(cover, ["w", "x", "y", "z"])
        pairs = _witnesses_of_kind(analysis, KIND_MIC)
        assert pairs
        for record, witness in pairs:
            assert witness.expected_changes == 1
            replay = replay_witness(analysis.lsop, witness)
            assert replay.glitched, replay.describe()
            assert replay.changes > 1


class TestSicDynamicWitness:
    def test_witness_replays_to_glitch(self):
        # The private-raising-path exemplar: s#2 appears in exactly one
        # product, so the vacuous pulse is not masked by path sharing.
        analysis = analyze_expression(parse("s*a + s'*(b + s*c)"))
        assert analysis.summary().sic_dynamic >= 1
        pairs = _witnesses_of_kind(analysis, KIND_SIC)
        assert pairs
        for record, witness in pairs:
            assert witness.expected_changes == 1
            replay = replay_witness(analysis.lsop, witness)
            assert replay.glitched, replay.describe()

    def test_shared_path_masking_is_respected(self):
        # (s+b)*(s'+a) distributes with SHARED path ids: the vacuous
        # term's raising path s#0 also raises product s#0·a#0, which
        # masks the pulse.  No s.i.c.-dynamic witness may be invented.
        analysis = analyze_expression(parse("(s + b)*(s' + a)"))
        assert not _witnesses_of_kind(analysis, KIND_SIC)


class TestWitnessInfrastructure:
    def test_all_kinds_covered_by_exemplars(self):
        # The four classes above are exactly the ALL_KINDS contract.
        assert set(ALL_KINDS) == {
            KIND_STATIC1,
            KIND_STATIC0,
            KIND_MIC,
            KIND_SIC,
        }

    def test_round_trip_dict(self):
        analysis = analyze_expression(parse("s'*a + s*b"))
        _, witness = analysis_witnesses(analysis)[0]
        clone = HazardWitness.from_dict(witness.to_dict())
        assert clone == witness
        assert clone.transition_string() == witness.transition_string()

    def test_verify_witness_true_for_real_witnesses(self):
        analysis = analyze_expression(parse("s'*a + s*b"))
        for _, witness in analysis_witnesses(analysis):
            assert verify_witness(analysis.lsop, witness)

    def test_glitch_schedule_none_for_clean_transition(self):
        # a: 0 -> 1 on a plain AND is monotone and hazard-free.
        lsop = label_expression(parse("a*b"))
        assert glitch_schedule(lsop, 0b10, 0b11) is None

    def test_witness_netlist_matches_function(self):
        lsop = label_expression(parse("s*a + s'*(b + s*c)"))
        netlist, wires = witness_netlist(lsop)
        netlist.validate()
        plain = lsop.plain_cover()
        for point in range(1 << lsop.nvars):
            values = {
                name: bool(point >> i & 1)
                for i, name in enumerate(lsop.names)
            }
            assert netlist.evaluate(values)["f"] == plain.evaluate(point)

    def test_witness_for_record_skips_masked_candidates(self):
        # Candidates that do not glitch under the lattice semantics are
        # filtered; whatever comes back must replay to a glitch.
        analysis = analyze_expression(parse("(a + b)*(a' + c)"))
        for record, witness in analysis_witnesses(analysis):
            confirmed = witness_for_record(record, analysis)
            assert confirmed is not None
            assert transition_has_hazard(
                analysis.lsop, confirmed.start, confirmed.end
            )

    def test_per_class_cap(self):
        cover = Cover.from_strings(
            ["w'xz", "w'xy", "xyz"], ["w", "x", "y", "z"]
        )
        analysis = analyze_cover(cover, ["w", "x", "y", "z"])
        capped = analysis_witnesses(analysis, per_class=1)
        kinds = [witness.kind for _, witness in capped]
        assert len(kinds) == len(set(kinds))  # at most one per class


def _replay_record(replay):
    return (
        replay.glitched,
        replay.changes,
        replay.expected,
        replay.schedule,
        replay.waveform.initial,
        replay.waveform.edges,
    )


class TestSharedCircuit:
    def test_replays_through_one_circuit_equal_fresh_replays(self):
        """All replays of one implementation may share one circuit:
        each replay, run in order through the shared circuit, equals
        the replay through a circuit built for it alone, down to the
        output's waveform edges, so no replay's delays reach the next."""
        kinds = {
            TransitionKind.STATIC_0: KIND_STATIC0,
            TransitionKind.STATIC_1: KIND_STATIC1,
            TransitionKind.DYNAMIC: KIND_MIC,
        }
        replays = 0
        for lsop in random_lsops(SHALLOW):
            if lsop.nvars > 5:
                continue
            circuit = WitnessCircuit(lsop)
            for verdict in hazardous_transitions(lsop):
                witness = HazardWitness(
                    kind=kinds[verdict.kind],
                    start=verdict.start,
                    end=verdict.end,
                    nvars=lsop.nvars,
                    names=tuple(lsop.names),
                )
                shared = replay_witness(lsop, witness, circuit=circuit)
                fresh = replay_witness(lsop, witness)
                assert _replay_record(shared) == _replay_record(fresh)
                assert shared.glitched, shared.describe()
                replays += 1
        assert replays >= 100
