"""Real-process drain tests: SIGTERM finishes in-flight requests.

Boots ``python -m repro serve`` as a subprocess, parks a slow request
in flight (an injected covering hang cut short by the service's default
deadline), delivers a real SIGTERM, and asserts the in-flight request
still completes — degraded to the trivial cover, not dropped — before
the daemon exits cleanly and writes its ``--trace``/``--metrics-file``
artifacts.  A client's idle kept-alive connection must not hold the
exit up.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import MapRequest
from repro.service.client import ServiceClient, ServiceError


@pytest.fixture
def daemon(tmp_path):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--no-cache",
            "--deadline", "3.0",
            "--inject", "hang@cover.cone",
            "--trace", str(tmp_path / "trace.json"),
            "--metrics-file", str(tmp_path / "metrics.json"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("serving on http://"), banner
        yield process, banner.split()[-1]
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10)
        process.stdout.close()
        process.stderr.close()


def test_sigterm_drains_inflight_requests(daemon, tmp_path):
    process, url = daemon
    client = ServiceClient(url)
    client.wait_ready(timeout=10)
    holder: dict = {}

    def _slow_call():
        try:
            holder["response"] = client.map(
                MapRequest(design="dme", library="CMOS3")
            )
        except ServiceError as exc:  # pragma: no cover - failure detail
            holder["error"] = exc

    thread = threading.Thread(target=_slow_call)
    thread.start()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if client.health().get("inflight", 0) >= 1:
            break
        time.sleep(0.02)
    else:
        pytest.fail("slow request never became in-flight")

    process.send_signal(signal.SIGTERM)
    thread.join(timeout=30)
    assert not thread.is_alive()
    client.close()
    assert "error" not in holder, f"in-flight request failed: {holder}"
    response = holder["response"]
    assert response.status == "ok"
    assert response.fallback == "trivial-cover"

    assert process.wait(timeout=30) == 0
    tail = process.stdout.read()
    assert "drained; bye" in tail

    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["schema"] == "repro-trace/v1"
    assert [span["name"] for span in trace["spans"]] == ["service.request"]
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["schema"] == "repro-metrics/v1"
    assert metrics["metrics"]["service.requests.map"]["value"] == 1


def test_sigterm_exits_promptly_past_an_idle_connection(daemon):
    process, url = daemon
    client = ServiceClient(url)
    # The readiness poll leaves the client's connection open and idle.
    client.wait_ready(timeout=10)
    started = time.monotonic()
    process.send_signal(signal.SIGTERM)
    try:
        assert process.wait(timeout=30) == 0
        assert time.monotonic() - started < 5.0
    finally:
        client.close()
