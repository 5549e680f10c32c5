"""The ``/v1/certify`` endpoint and its ``repro-api/v1`` payloads."""

from __future__ import annotations

import pytest

from repro.api import (
    ApiError,
    CertifyRequest,
    CertifyResponse,
    MapRequest,
    parse_request,
)
from repro.api.schema import MAX_EXHAUSTIVE_LIMIT, MAX_SAMPLES

BLIF_STUB = ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n"


class TestPayloads:
    def test_request_roundtrip(self):
        request = CertifyRequest(
            mapped_blif=BLIF_STUB,
            design="chu-ad-opt",
            library="CMOS3",
            samples=99,
            seed=4,
        )
        parsed = parse_request(request.to_payload())
        assert isinstance(parsed, CertifyRequest)
        assert parsed == request

    def test_inline_network_roundtrip(self):
        request = CertifyRequest(
            mapped_blif=BLIF_STUB,
            network={"equations": {"f": "a"}, "name": "inline"},
        )
        parsed = parse_request(request.to_payload())
        assert parsed.network == request.network

    def test_mapped_blif_is_required(self):
        with pytest.raises(ApiError):
            CertifyRequest(mapped_blif="", design="chu-ad-opt")

    def test_exactly_one_source_spec(self):
        with pytest.raises(ApiError):
            CertifyRequest(mapped_blif=BLIF_STUB)
        with pytest.raises(ApiError):
            CertifyRequest(
                mapped_blif=BLIF_STUB,
                design="chu-ad-opt",
                network={"equations": {"f": "a"}},
            )

    def test_knob_validation(self):
        with pytest.raises(ApiError):
            CertifyRequest(
                mapped_blif=BLIF_STUB, design="chu-ad-opt", samples=0
            )
        with pytest.raises(ApiError):
            CertifyRequest(
                mapped_blif=BLIF_STUB,
                design="chu-ad-opt",
                exhaustive_limit=0,
            )
        # Certify requests have no deadline: the work they ask for is
        # bounded instead.
        for knobs in (
            {"exhaustive_limit": MAX_EXHAUSTIVE_LIMIT + 1},
            {"exhaustive_limit": 14},
            {"samples": MAX_SAMPLES + 1},
        ):
            with pytest.raises(ApiError, match="must be <="):
                CertifyRequest(
                    mapped_blif=BLIF_STUB, design="chu-ad-opt", **knobs
                )
        payload = CertifyRequest(
            mapped_blif=BLIF_STUB, design="chu-ad-opt"
        ).to_payload()
        with pytest.raises(ApiError, match="exhaustive_limit"):
            parse_request(dict(payload, exhaustive_limit=14))
        CertifyRequest(
            mapped_blif=BLIF_STUB,
            design="chu-ad-opt",
            exhaustive_limit=MAX_EXHAUSTIVE_LIMIT,
            samples=MAX_SAMPLES,
        )

    def test_tampered_kind_is_rejected(self):
        payload = CertifyRequest(
            mapped_blif=BLIF_STUB, design="chu-ad-opt"
        ).to_payload()
        payload["kind"] = "certify_v2"
        with pytest.raises(ApiError):
            parse_request(payload)

    def test_response_roundtrip(self):
        response = CertifyResponse(
            verdict="rejected",
            certified=False,
            equivalent=True,
            hazard_safe=False,
            outputs_checked=2,
            transitions_checked=180,
            replays=1,
            evidence_digest="ab" * 32,
            violations=("output f: new static-1 hazard",),
            counterexamples=(),
            certificate={"schema": "repro-cert/v1"},
        )
        parsed = CertifyResponse.from_payload(response.to_payload())
        assert parsed == response


class TestEndpoint:
    def test_certify_over_http_accepts_real_mapping(self, make_service):
        _, client = make_service()
        mapped = client.map(
            MapRequest(design="chu-ad-opt", library="CMOS3", max_depth=3)
        )
        response = client.certify(
            CertifyRequest(
                mapped_blif=mapped.blif,
                design="chu-ad-opt",
                library="CMOS3",
            )
        )
        assert response.certified
        assert response.verdict == "certified"
        assert response.certificate["schema"] == "repro-cert/v1"
        assert response.evidence_digest == (
            response.certificate["evidence_digest"]
        )

    def test_certify_over_http_rejects_wrong_netlist(self, make_service):
        _, client = make_service()
        mapped = client.map(
            MapRequest(design="vanbek-opt", library="CMOS3", max_depth=3)
        )
        # vanbek-opt's netlist certified against chu-ad-opt's spec must
        # fail (interface and/or function mismatch).
        response = client.certify(
            CertifyRequest(
                mapped_blif=mapped.blif,
                design="chu-ad-opt",
                library="CMOS3",
            )
        )
        assert not response.certified
        assert response.violations

    def test_certify_endpoint_counts_metrics(self, make_service):
        _, client = make_service()
        mapped = client.map(
            MapRequest(design="chu-ad-opt", library="CMOS3", max_depth=3)
        )
        client.certify(
            CertifyRequest(
                mapped_blif=mapped.blif,
                design="chu-ad-opt",
                library="CMOS3",
            )
        )
        metrics = client.metrics()["metrics"]
        assert metrics["conformance.certificates"]["value"] >= 1
