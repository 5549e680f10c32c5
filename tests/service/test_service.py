"""Behavioural tests for the in-process mapping service.

The load-bearing guarantees: responses are byte-identical to direct
``map_network`` runs even under concurrency; a warm service never
re-annotates a library (the ``library.annotate.calls`` counter stays
flat); admission control answers ``429`` when the queue is full;
deadline overruns degrade to the trivial cover over HTTP; and drain
finishes in-flight work while refusing new work with ``503``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import CertifyRequest, MapRequest, netlist_blif
from repro.cli import main
from repro.service import MappingService, ServiceConfig
from repro.service.client import ServiceError
from repro.service.daemon import ENDPOINT_KINDS, RETRY_AFTER_SECONDS
from repro.testing.faults import FaultPlan

DESIGNS = ("dme", "vanbek-opt", "chu-ad-opt", "dme")


class TestMappingParity:
    def test_concurrent_requests_match_sequential_map_network(
        self, make_service
    ):
        service, client = make_service(workers=3, queue_limit=16)
        requests = [
            MapRequest(design=design, library="CMOS3") for design in DESIGNS
        ]
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            responses = list(pool.map(client.map, requests))

        from repro.mapping.mapper import MappingOptions, map_network

        for request, response in zip(requests, responses):
            result = map_network(
                request.design, "CMOS3", MappingOptions(), mode="async"
            )
            assert response.blif == netlist_blif(result.mapped)
            assert response.area == result.area
            assert response.cells == sum(result.cell_usage().values())

    def test_warm_requests_skip_annotation_entirely(self, make_service):
        service, client = make_service()
        first = client.map(MapRequest(design="dme", library="CMOS3"))
        second = client.map(MapRequest(design="dme", library="CMOS3"))
        assert first.blif == second.blif
        assert first.digest == second.digest
        assert first.annotate_source == "cold"
        # The second response did no annotation work at all.
        assert second.annotate_source is None
        assert second.annotate_seconds == 0.0
        metrics = client.metrics()["metrics"]
        assert metrics["library.annotate.calls"]["value"] == 1
        assert metrics["service.requests.map"]["value"] == 2

    def test_preload_pays_annotation_before_first_request(self, make_service):
        service, client = make_service(preload=("CMOS3",))
        response = client.map(MapRequest(design="dme", library="CMOS3"))
        assert response.annotate_source is None  # already warm at boot
        metrics = client.metrics()["metrics"]
        assert metrics["library.annotate.calls"]["value"] == 1


class TestAdmissionAndDeadlines:
    def test_queue_full_answers_429(self, make_service):
        plan = FaultPlan.parse(["hang@cover.cone"], hang_seconds=30.0)
        service, client = make_service(
            workers=1, queue_limit=1, fault_plan=plan
        )
        slow = MapRequest(
            design="dme", library="CMOS3", deadline_seconds=2.0
        )
        holder: dict = {}

        def _slow_call():
            holder["response"] = client.map(slow)

        thread = threading.Thread(target=_slow_call)
        thread.start()
        try:
            # Wait until the slow request actually occupies the queue slot.
            for _ in range(200):
                if service.inflight >= 1:
                    break
                threading.Event().wait(0.01)
            assert service.inflight >= 1
            with pytest.raises(ServiceError) as info:
                client.map(MapRequest(design="dme", library="CMOS3"))
            assert info.value.status == 429
            assert info.value.retry_after == RETRY_AFTER_SECONDS
        finally:
            thread.join(timeout=30)
        # The admitted request still finished — degraded, not dropped.
        response = holder["response"]
        assert response.fallback == "trivial-cover"
        metrics = client.metrics()["metrics"]
        assert metrics["service.rejected.429"]["value"] == 1

    def test_at_most_workers_requests_execute_at_once(
        self, make_service, monkeypatch
    ):
        """Admitted requests beyond ``workers`` wait for a slot; they
        are not refused."""
        import repro.service.daemon as daemon

        hold = 0.2
        lock = threading.Lock()
        running = peak = 0
        execute_map = daemon.execute_map

        def held(*args, **kwargs):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            try:
                time.sleep(hold)
                return execute_map(*args, **kwargs)
            finally:
                with lock:
                    running -= 1

        monkeypatch.setattr(daemon, "execute_map", held)
        service, client = make_service(
            workers=2, queue_limit=8, preload=("CMOS3",)
        )
        request = MapRequest(design="chu-ad-opt", library="CMOS3", max_depth=3)
        start = threading.Barrier(6)

        def _call(_):
            start.wait()
            response = client.map(request)
            # The handler records a request's phases after replying; the
            # next request on its connection is read only after that.
            client.health()
            return response

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(_call, range(6)))
        assert len({response.digest for response in responses}) == 1
        assert peak == 2
        metrics = client.metrics()["metrics"]
        assert "service.rejected.429" not in metrics
        queue = metrics["service.queue_seconds"]
        assert queue["count"] == 6
        assert queue["max"] >= hold

    def test_deadline_overrun_degrades_over_http(self, make_service):
        plan = FaultPlan.parse(["hang@cover.cone"], hang_seconds=30.0)
        service, client = make_service(fault_plan=plan)
        response = client.map(
            MapRequest(design="dme", library="CMOS3", deadline_seconds=0.5)
        )
        assert response.status == "ok"
        assert response.fallback == "trivial-cover"
        assert response.deadline_site == "cover.cone"
        metrics = client.metrics()["metrics"]
        assert metrics["service.fallbacks"]["value"] == 1

    def test_service_default_deadline_applies(self, make_service):
        plan = FaultPlan.parse(["hang@annotate.library"], hang_seconds=30.0)
        service, client = make_service(
            fault_plan=plan, deadline_seconds=0.5
        )
        response = client.map(MapRequest(design="dme", library="CMOS3"))
        assert response.fallback == "trivial-cover"
        assert response.deadline_site == "annotate.library"


class TestProtocol:
    def test_bad_payloads_answer_400(self, make_service):
        service, client = make_service()
        with pytest.raises(ServiceError) as info:
            client._post("/v1/map", {"schema": "repro-api/v1",
                                     "kind": "map"})
        assert info.value.status == 400
        # Wrong kind for the endpoint.
        with pytest.raises(ServiceError) as info:
            client._post(
                "/v1/certify",
                MapRequest(design="dme", library="CMOS3").to_payload(),
            )
        assert info.value.status == 400
        assert "certify" in info.value.message
        # Not JSON at all.
        with pytest.raises(ServiceError) as info:
            client._request("POST", "/v1/map", None)
        assert info.value.status == 400

    def test_unknown_endpoint_answers_404(self, make_service):
        service, client = make_service()
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/v1/nonsense", None)
        assert info.value.status == 404
        # Explain and batch were folded into /v1/map; only map and
        # certify carry work.
        assert set(ENDPOINT_KINDS) == {"/v1/map", "/v1/certify"}
        payload = MapRequest(design="dme", library="CMOS3").to_payload()
        for path in ("/v1/explain", "/v1/batch"):
            with pytest.raises(ServiceError) as info:
                client._post(path, payload)
            assert info.value.status == 404

    def test_map_with_explain_carries_a_valid_decision_log(
        self, make_service
    ):
        from repro.obs.explain import render_explain, validate_explain_payload

        service, client = make_service()
        response = client.map(
            MapRequest(design="dme", library="CMOS3", explain=True)
        )
        summary = validate_explain_payload(response.explain)
        assert summary["cones"] == response.cones
        assert render_explain(response.explain, limit=2)

    def test_metrics_counters_match_request_mix(self, make_service):
        service, client = make_service()
        mapped = client.map(MapRequest(design="dme", library="CMOS3"))
        checked = client.map(
            MapRequest(design="dme", library="CMOS3", verify=True)
        )
        assert checked.verify["ok"] is True
        client.map(MapRequest(design="dme", library="CMOS3", explain=True))
        verdict = client.certify(
            CertifyRequest(design="dme", mapped_blif=mapped.blif)
        )
        assert verdict.certified
        with pytest.raises(ServiceError):
            client._post("/v1/map", {"schema": "repro-api/v1"})
        metrics = client.metrics()["metrics"]
        assert metrics["service.requests"]["value"] == 5
        # The explained map is a map request; explain has no counter.
        assert metrics["service.requests.map"]["value"] == 4
        assert "service.requests.explain" not in metrics
        assert metrics["service.requests.certify"]["value"] == 1
        assert metrics["service.errors"]["value"] == 1
        assert metrics["service.request_seconds"]["count"] == 4

    def test_health_reports_shape(self, make_service):
        service, client = make_service(workers=3, queue_limit=5)
        health = client.health()
        assert health["status"] == "ok"
        assert health["inflight"] == 0
        assert health["queue_limit"] == 5
        assert "backend" not in health
        assert health["workers"] == 3


class TestConfigValidation:
    """A pool or queue the daemon cannot run is refused at boot."""

    @pytest.mark.parametrize(
        "field, value",
        [("queue_limit", 0), ("queue_limit", -1), ("workers", 0)],
    )
    def test_service_rejects_values_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            MappingService(ServiceConfig(port=0, **{field: value}))

    @pytest.mark.parametrize(
        "flag, value",
        [("--queue-limit", "0"), ("--queue-limit", "-1"), ("--workers", "0")],
    )
    def test_serve_flags_below_one_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    def test_batch_workers_zero_still_means_one_per_cpu(self):
        import os

        from repro.batch import BatchConfig
        from repro.cli import build_parser

        args = build_parser().parse_args(["batch", "--workers", "0"])
        config = BatchConfig(workers=args.workers)
        assert config.resolved_workers() == (os.cpu_count() or 1)


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new(self, make_service):
        plan = FaultPlan.parse(["hang@cover.cone"], hang_seconds=30.0)
        service, client = make_service(fault_plan=plan, queue_limit=4)
        holder: dict = {}

        def _slow_call():
            holder["response"] = client.map(
                MapRequest(design="dme", library="CMOS3",
                           deadline_seconds=2.0)
            )

        thread = threading.Thread(target=_slow_call)
        thread.start()
        for _ in range(200):
            if service.inflight >= 1:
                break
            threading.Event().wait(0.01)
        assert service.inflight >= 1

        drainer = threading.Thread(target=service.drain)
        drainer.start()
        for _ in range(200):
            if service.draining:
                break
            threading.Event().wait(0.01)
        with pytest.raises(ServiceError) as info:
            client.map(MapRequest(design="dme", library="CMOS3"))
        assert info.value.status == 503
        drainer.join(timeout=30)
        thread.join(timeout=30)
        assert not drainer.is_alive()
        # The in-flight request completed during the drain.
        assert holder["response"].status == "ok"
        assert service.inflight == 0
