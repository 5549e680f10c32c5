"""The explain layer: decision records, schema, determinism, witnesses.

The contracts under test:

* every hazard-filter invocation produces exactly one screened record
  (``summary.filter_invocations == CoverStats.filter_invocations``);
* every ``rejected-hazard`` record carries a reason naming the hazard
  class plus a witness that replays to a real glitch on the event
  simulator;
* the log is byte-identical on repeated runs (mirroring
  ``tests/mapping/test_stats_merge.py``);
* ``validate_explain_payload`` rejects tampered payloads;
* ``publish_metrics`` lands the rejection-reason counts in the
  registry.
"""

from __future__ import annotations

import json

import pytest

from repro.hazards.witness import HazardWitness, replay_witness
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.network.netlist import Netlist
from repro.obs.explain import (
    ACCEPTED,
    EXPLAIN_SCHEMA,
    OUTCOMES,
    REJECTED_COST,
    REJECTED_HAZARD,
    ExplainLog,
    render_explain,
    validate_explain_payload,
    verify_explain_witnesses,
)
from repro.obs.export import load_explain, write_explain
from repro.obs.metrics import MetricsRegistry

# The Figure-3 situation: consensus makes f hazard-free, so the
# hazardous MUX21 candidate must be rejected — with provenance.
MUX_CONSENSUS = {"f": "s*a + s'*b + a*b"}

# The stats-merge workload: two mux cones (filter exercised) plus two
# plain cones.
EQUATIONS = {
    "f": "s*a + s'*b",
    "g": "t*c + t'*d",
    "h": "a*b + c",
    "k": "(a + b)*c'",
}


def run_explained(mini_library, equations, name="net"):
    net = Netlist.from_equations(equations, name=name)
    return async_tmap(net, mini_library, MappingOptions(explain=True))


class TestExplainRecording:
    def test_disabled_by_default(self, mini_library):
        net = Netlist.from_equations(MUX_CONSENSUS)
        result = async_tmap(net, mini_library, MappingOptions())
        assert result.explain is None

    def test_filter_invocations_fully_covered(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        summary = result.explain.summary()
        assert result.stats.filter_invocations > 0
        assert summary["filter_invocations"] == result.stats.filter_invocations

    def test_mux_rejection_has_witnessed_reason(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        rejected = [
            r
            for r in result.explain.iter_records()
            if r.outcome == REJECTED_HAZARD
        ]
        assert rejected
        record = rejected[0]
        assert record.cell == "MUX21"
        assert record.screened and record.hazardous
        reason = record.reason
        assert reason is not None
        assert reason["kind"] == "static-1"
        witness = HazardWitness.from_dict(reason["witness"])
        cell = mini_library.cell("MUX21")
        replay = replay_witness(cell.analysis.lsop, witness)
        assert replay.glitched

    def test_selected_records_marked(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        selected = [
            r for r in result.explain.iter_records() if r.selected
        ]
        # One selection per chosen cluster root, all champions.
        assert selected
        assert {r.node for r in selected} == {
            sel.cluster.root
            for cover in result.covers
            for sel in cover.selections
        }
        assert all(r.outcome == ACCEPTED for r in selected)

    def test_losing_champions_flip_to_cost(self, mini_library):
        result = run_explained(mini_library, EQUATIONS)
        outcomes = [r.outcome for r in result.explain.iter_records()]
        assert outcomes.count(REJECTED_COST) > 0
        # Exactly one accepted champion per (node) among the accepted set
        accepted_nodes = [
            r.node
            for r in result.explain.iter_records()
            if r.outcome == ACCEPTED
        ]
        assert len(accepted_nodes) == len(set(accepted_nodes))


class TestDeterminism:
    def test_log_identical_across_repeated_runs(self, mini_library):
        payloads = {
            json.dumps(
                run_explained(mini_library, EQUATIONS, name="multi")
                .explain.to_dict(),
                sort_keys=True,
            )
            for _ in range(3)
        }
        assert len(payloads) == 1


class TestSchema:
    def test_payload_validates_and_round_trips(self, mini_library, tmp_path):
        result = run_explained(mini_library, MUX_CONSENSUS)
        payload = result.explain.to_dict()
        assert payload["schema"] == EXPLAIN_SCHEMA
        summary = validate_explain_payload(payload)
        assert summary["rejected_hazard"] >= 1
        path = tmp_path / "explain.json"
        write_explain(path, result.explain)
        assert load_explain(path) == payload

    def test_unknown_outcome_rejected(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        payload = result.explain.to_dict()
        payload["cones"][0]["candidates"][0]["outcome"] = "banana"
        with pytest.raises(ValueError, match="unknown outcome"):
            validate_explain_payload(payload)

    def test_stripped_witness_rejected(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        payload = result.explain.to_dict()
        for cone in payload["cones"]:
            for record in cone["candidates"]:
                if record["outcome"] == REJECTED_HAZARD:
                    del record["reason"]["witness"]
        with pytest.raises(ValueError, match="no witness"):
            validate_explain_payload(payload)

    def test_inconsistent_summary_rejected(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        payload = result.explain.to_dict()
        payload["summary"]["filter_invocations"] += 1
        with pytest.raises(ValueError, match="filter_invocations"):
            validate_explain_payload(payload)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            validate_explain_payload({"schema": "repro-explain/v0"})

    def test_verify_explain_witnesses(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        payload = result.explain.to_dict()
        replayed = verify_explain_witnesses(payload, mini_library)
        assert replayed >= 1

    def test_verify_catches_fabricated_witness(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        payload = result.explain.to_dict()
        for cone in payload["cones"]:
            for record in cone["candidates"]:
                if record["outcome"] == REJECTED_HAZARD:
                    # A hazard-free burst: nothing changes.
                    record["reason"]["witness"]["end"] = record["reason"][
                        "witness"
                    ]["start"]
        with pytest.raises(ValueError, match="did not glitch"):
            verify_explain_witnesses(payload, mini_library)


class TestMetricsAndRendering:
    def test_publish_metrics(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        snap = result.metrics.snapshot()
        summary = result.explain.summary()
        assert snap["explain.candidates"]["value"] == summary["candidates"]
        assert (
            snap["explain.filter_invocations"]["value"]
            == summary["filter_invocations"]
        )
        assert snap["explain.rejected_hazard"]["value"] == summary[
            "rejected_hazard"
        ]
        assert snap["explain.rejected_hazard.static_1"]["value"] >= 1

    def test_render_report(self, mini_library):
        result = run_explained(mini_library, MUX_CONSENSUS)
        lines = render_explain(result.explain.to_dict())
        text = "\n".join(lines)
        assert "MUX21" in text
        assert "rejected-hazard" in text
        assert "static-1" in text
        assert "cell witness:" in text

    def test_render_filters(self, mini_library):
        result = run_explained(mini_library, EQUATIONS, name="multi")
        payload = result.explain.to_dict()
        roots = [cone["root"] for cone in payload["cones"]]
        only = render_explain(payload, cone=roots[0])
        assert f"cone {roots[0]}" in "\n".join(only)
        assert f"cone {roots[1]}" not in "\n".join(only)
        limited = render_explain(payload, limit=1)
        assert any("more" in line for line in limited)

    def test_empty_log_summary(self):
        log = ExplainLog(design="empty")
        summary = log.summary()
        assert summary["candidates"] == 0
        assert summary["reason_kinds"] == {}
        for outcome in OUTCOMES:
            assert summary[outcome.replace("-", "_")] == 0
