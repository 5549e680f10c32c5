"""Contract tests for the ``repro-api/v1`` schema.

Round-trip: every request/response type survives ``to_payload`` →
``from_payload`` unchanged.  Tamper: a wrong schema stamp, an unknown
field, a mistyped value, or a missing required field raises
:class:`ApiError` at the boundary instead of being silently dropped.
Correspondence: ``BatchJob`` specs and the option table stay in lock
step, so a new option declared in ``OPTION_FIELDS`` cannot silently
miss one of the derived surfaces.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    API_SCHEMA,
    ApiError,
    BATCH_OPTION_NAMES,
    BatchRequest,
    ExplainRequest,
    MapRequest,
    MapResponse,
    OPTION_FIELDS,
    OPTION_NAMES,
    parse_request,
)
from repro.batch.jobs import BatchJob


REQUESTS = [
    MapRequest(design="dme", library="CMOS3", verify=True,
               max_depth=3, objective="delay", deadline_seconds=2.5),
    MapRequest(network={"blif": ".model t\n.inputs a\n.outputs y\n"
                        ".names a y\n1 1\n.end\n"},
               library="CMOS3"),
    BatchRequest(designs=("dme", "vanbek-opt"), libraries=("CMOS3", "LSI9K"),
                 verify=True, include_blif=True),
    ExplainRequest(design="dme", library="CMOS3", limit=3,
                   rejected_only=True),
]


class TestRoundTrip:
    @pytest.mark.parametrize("request_obj", REQUESTS,
                             ids=lambda r: type(r).__name__)
    def test_request_round_trips(self, request_obj):
        payload = request_obj.to_payload()
        assert payload["schema"] == API_SCHEMA
        assert type(request_obj).from_payload(payload) == request_obj
        # parse_request dispatches on the payload's kind discriminator.
        assert parse_request(payload) == request_obj

    def test_payloads_are_plain_json(self):
        import json

        for request_obj in REQUESTS:
            json.loads(json.dumps(request_obj.to_payload()))

    def test_map_response_round_trips(self):
        response = MapResponse(
            status="ok", design="dme", library="CMOS3", mode="async",
            area=12.0, delay=0.66, cells=5,
            cell_usage={"AO21": 2, "OR2": 3}, cones=4, matches=10,
            filter_invocations=1, map_seconds=0.1, annotate_seconds=0.2,
            annotate_source="cold", digest="d" * 64,
            blif=".model dme\n.end\n", fallback=None, deadline_site=None,
            verify={"equivalent": True, "hazard_safe": True, "ok": True},
            explain=None,
        )
        assert MapResponse.from_payload(response.to_payload()) == response


class TestTamper:
    def payload(self) -> dict:
        return MapRequest(design="dme", library="CMOS3").to_payload()

    def test_wrong_schema_stamp(self):
        payload = self.payload()
        payload["schema"] = "repro-api/v0"
        with pytest.raises(ApiError, match="schema"):
            MapRequest.from_payload(payload)

    def test_missing_schema_stamp(self):
        payload = self.payload()
        del payload["schema"]
        with pytest.raises(ApiError):
            MapRequest.from_payload(payload)

    def test_wrong_kind(self):
        payload = self.payload()
        payload["kind"] = "batch"
        with pytest.raises(ApiError, match="kind"):
            MapRequest.from_payload(payload)
        with pytest.raises(ApiError):
            parse_request({**self.payload(), "kind": "nonsense"})
        # The retired verify kind has no alias: callers send "certify".
        with pytest.raises(ApiError, match="certify"):
            parse_request({"schema": "repro-api/v1", "kind": "verify",
                           "design": "dme", "mapped_blif": "x"})

    def test_unknown_field_rejected(self):
        payload = self.payload()
        payload["max_deth"] = 3  # a typo'd knob must not be dropped
        with pytest.raises(ApiError, match="max_deth"):
            MapRequest.from_payload(payload)

    def test_removed_workers_field_rejected(self):
        # Dropped inside v1 (covering is serial): a stale client's
        # field fails loudly instead of being ignored.
        payload = self.payload()
        payload["workers"] = 2
        with pytest.raises(ApiError, match="workers"):
            MapRequest.from_payload(payload)

    def test_mistyped_value_rejected(self):
        payload = self.payload()
        payload["max_depth"] = "five"
        with pytest.raises(ApiError, match="max_depth"):
            MapRequest.from_payload(payload)

    def test_missing_required_field(self):
        payload = self.payload()
        del payload["library"]
        with pytest.raises(ApiError, match="library"):
            MapRequest.from_payload(payload)

    def test_bad_option_values(self):
        with pytest.raises(ApiError):
            MapRequest(design="dme", library="CMOS3", objective="power")
        with pytest.raises(ApiError):
            MapRequest(design="dme", library="CMOS3", max_depth=0)
        with pytest.raises(ApiError):
            MapRequest(design="dme", library="CMOS3", deadline_seconds=0.0)

    def test_design_network_exclusivity(self):
        with pytest.raises(ApiError):
            MapRequest(library="CMOS3")
        with pytest.raises(ApiError):
            MapRequest(library="CMOS3", design="dme",
                       network={"blif": ".model x\n.end\n"})

    def test_bad_network_shapes(self):
        with pytest.raises(ApiError):
            MapRequest(library="CMOS3", network={})
        with pytest.raises(ApiError):
            MapRequest(library="CMOS3",
                       network={"blif": ".model x\n.end\n", "extra": 1})


class TestBatchJobCorrespondence:
    """BatchJob specs derive from the one option declaration table."""

    def test_job_fields_track_the_schema(self):
        job_fields = {f.name for f in dataclasses.fields(BatchJob)}
        assert job_fields == (
            {"design", "library", "verify", "explain"} | set(BATCH_OPTION_NAMES)
        )

    def test_option_table_is_authoritative(self):
        assert set(BATCH_OPTION_NAMES) <= set(OPTION_NAMES)
        # result_cache cannot change results, so it must stay out of specs.
        assert "result_cache" in OPTION_NAMES
        assert "result_cache" not in BATCH_OPTION_NAMES
        assert "workers" not in OPTION_NAMES  # covering is serial
        for field in OPTION_FIELDS:
            assert hasattr(MapRequest(design="dme", library="CMOS3"),
                           field.name)

    def test_job_round_trips_through_request(self):
        job = BatchJob(design="dme", library="CMOS3", mode="sync",
                       max_depth=3, verify=True)
        assert BatchJob.from_request(job.to_request()) == job

    def test_request_rejects_inline_networks(self):
        inline = MapRequest(
            library="CMOS3", network={"blif": ".model x\n.end\n"}
        )
        with pytest.raises(ApiError, match="catalog"):
            BatchJob.from_request(inline)

    def test_bad_spec_rejected_as_value_error(self):
        with pytest.raises(ValueError):
            BatchJob(design="dme", library="CMOS3", objective="power")


class TestLegacyKeywordShims:
    def test_unknown_keyword_rejected(self, mini_library):
        from repro.burstmode.benchmarks import synthesize_benchmark
        from repro.mapping.mapper import async_tmap

        network = synthesize_benchmark("dme").netlist("dme")
        with pytest.raises(TypeError, match="cluster_depth"):
            async_tmap(network, mini_library, cluster_depth=2)
