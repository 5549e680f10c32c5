"""Daemon observability: trace propagation, enriched health, Prometheus.

The distributed-tracing contract under test: a client that sends
``X-Repro-Trace`` gets back its own ``trace_id`` with the daemon's
``service.request`` span and the full mapping tree beneath it —
grafting the response under the client's root span yields ONE
well-formed tree spanning client and daemon.
"""

from __future__ import annotations

import dataclasses
import json
import time
import urllib.request

import pytest

from repro.api.schema import MapRequest
from repro.obs.export import parse_prometheus_text
from repro.obs.tracer import TRACE_HEADER, Tracer

REQUEST = MapRequest(library="CMOS3", design="chu-ad-opt", max_depth=3)


def _traced_map(client, request=REQUEST):
    tracer = Tracer()
    root = tracer.start_span("map.client", design=request.design)
    client.trace_context = tracer.context(root)
    response = client.map(request)
    tracer.finish_span(root)
    client.trace_context = None
    return tracer, root, response


def test_traced_request_round_trips_one_tree(make_service):
    service, client = make_service()
    tracer, root, response = _traced_map(client)

    assert response.trace is not None
    assert response.trace["trace_id"] == tracer.trace_id
    tracer.graft(response.trace, parent=root)
    tracer.assert_well_formed()

    spans = {span.name: span for span in tracer.all_spans()}
    assert "service.request" in spans, "daemon span missing from the stitch"
    assert "async_tmap" in spans, "mapping tree missing"
    request_span = spans["service.request"]
    # The mapping spans open under service.request directly.
    assert spans["async_tmap"].parent_id == request_span.span_id
    assert request_span.attrs["remote_parent"] == root.span_id
    assert request_span.attrs["status"] == 200
    # One root: the client's; everything else hangs beneath it.
    assert tracer.roots() == [root]


def test_untraced_request_has_no_trace_key(make_service, tmp_path):
    # Without a trace file the daemon keeps no spans at all; with one,
    # every untraced request adds exactly one service.request root.
    service, client = make_service()
    assert client.map(REQUEST).trace is None
    assert service.tracer.roots() == []

    service, client = make_service(trace_path=tmp_path / "trace.json")
    for _ in range(2):
        assert client.map(REQUEST).trace is None
    roots = [span.name for span in service.tracer.roots()]
    assert roots == ["service.request"] * 2


def test_request_span_records_the_response_status(make_service, tmp_path):
    from repro.service.client import ServiceError

    service, client = make_service(trace_path=tmp_path / "trace.json")
    client.map(REQUEST)
    with pytest.raises(ServiceError) as excinfo:
        client.map(dataclasses.replace(REQUEST, design="no-such-design"))
    assert excinfo.value.status == 400
    statuses = [span.attrs["status"] for span in service.tracer.roots()]
    assert statuses == [200, 400]


def test_malformed_trace_header_is_rejected(make_service):
    service, client = make_service()
    request = urllib.request.Request(
        f"{client.base_url}/healthz", headers={TRACE_HEADER: "no-span-id"}
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    assert "malformed" in json.loads(excinfo.value.read())["error"]


def test_healthz_reports_queue_and_libraries(make_service):
    service, client = make_service(preload=("CMOS3",))
    health = client.health()
    assert health["status"] == "ok"
    assert health["queue_depth"] == 0
    assert health["queue_available"] == service.config.queue_limit
    assert health["uptime_seconds"] >= 0
    assert health["libraries"] == ["CMOS3"]


def test_healthz_counts_only_cache_entries_still_there(
    make_service, monkeypatch, tmp_path
):
    """Regression: an entry removed between listing and stat (a
    concurrent store's eviction, ``repro cache --clear``) made
    ``/healthz`` close the connection without a reply."""
    from repro.cache import resultcache

    kept = tmp_path / "kept.json"
    kept.write_text("{}")

    class Vanished:
        def exists(self) -> bool:
            return True

        def stat(self):
            raise FileNotFoundError("removed since it was listed")

    monkeypatch.setattr(
        resultcache, "result_entries", lambda cache_dir=None: [Vanished(), kept]
    )
    service, client = make_service()
    health = client.health()
    assert health["status"] == "ok"
    assert health["result_cache"]["disk_entries"] == 1
    assert health["result_cache"]["disk_bytes"] == 2


def test_an_internal_fault_answers_500_on_any_endpoint(
    make_service, monkeypatch
):
    import repro.service.daemon as daemon
    from repro.service.client import ServiceError

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    service, client = make_service()
    monkeypatch.setattr(service, "_health", broken)
    monkeypatch.setattr(daemon, "execute_map", broken)
    for call in (client.health, lambda: client.map(REQUEST)):
        with pytest.raises(ServiceError) as excinfo:
            call()
        assert excinfo.value.status == 500
        assert "RuntimeError: boom" in str(excinfo.value)
    # Both were answered, so one connection carried every request.
    assert client.metrics()["metrics"]["service.errors"]["value"] == 2
    assert service.metrics.snapshot()["service.connections"]["value"] == 1


def test_per_endpoint_latency_histograms(make_service):
    service, client = make_service()
    client.map(REQUEST)
    client.health()
    client.metrics()
    snapshot = service.metrics.snapshot()
    for name in (
        "service.request.latency.map",
        "service.request.latency.healthz",
        "service.request.latency.metrics",
    ):
        assert snapshot[name]["type"] == "histogram", name
        assert snapshot[name]["count"] >= 1, name


def test_executed_requests_split_into_four_phases(make_service):
    from repro.service.client import ServiceError

    service, client = make_service()
    started = time.perf_counter()
    client.map(REQUEST)
    client.map(REQUEST)
    wall = time.perf_counter() - started
    # Neither a report nor a request the worker refuses is split.
    client.health()
    with pytest.raises(ServiceError):
        client.map(dataclasses.replace(REQUEST, design="no-such-design"))
    snapshot = service.metrics.snapshot()
    phases = [
        snapshot[f"service.{phase}_seconds"]
        for phase in ("parse", "queue", "execute", "serialize")
    ]
    assert [phase["count"] for phase in phases] == [2, 2, 2, 2]
    assert all(phase["min"] >= 0 for phase in phases)
    # Together they are the two requests' handling time, which the
    # client's wall time around them includes.
    assert sum(phase["sum"] for phase in phases) <= wall
    assert snapshot["service.connections"]["value"] == 1


def test_prometheus_endpoint_parses(make_service):
    service, client = make_service()
    client.map(REQUEST)
    text = client.metrics_prometheus()
    parsed = parse_prometheus_text(text)
    assert parsed["samples"]["service_requests_total"] >= 1.0
    assert parsed["types"]["service_request_seconds"] == "histogram"
    assert (
        parsed["samples"]['service_request_seconds_bucket{le="+Inf"}'] >= 1.0
    )
    assert (
        parsed["samples"]['service_request_latency_map_bucket{le="+Inf"}']
        >= 1.0
    )


def test_metrics_unknown_format_is_rejected(make_service):
    from repro.service.client import ServiceError

    service, client = make_service()
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/metrics?format=xml", None)
    assert excinfo.value.status == 400
