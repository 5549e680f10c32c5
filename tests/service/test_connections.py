"""Connection lifecycle: one HTTP/1.1 connection carries many requests.

The daemon keeps a connection open after each reply; a
:class:`ServiceClient` keeps one connection per calling thread and
replaces, once, a kept connection the daemon dropped while it sat idle.
Shutdown ends idle connections at once instead of waiting out the
socket timeout.  Connections are counted by the daemon's
``service.connections`` counter.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time

from repro.api import MapRequest
from repro.api.facade import execute_map
from repro.library import anncache
from repro.service import MappingService, ServiceConfig, daemon
from repro.service.client import ServiceClient

#: How long a raw-socket test waits for a reply (or the hang-up).
REPLY_WAIT_SECONDS = 5.0

#: Fields of a map response that time the work rather than describe it.
TIMING_FIELDS = ("map_seconds", "annotate_seconds", "annotate_source")


def connections(service) -> int:
    return service.metrics.counter("service.connections").value


def comparable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in TIMING_FIELDS}


def read_reply(stream) -> tuple[int, dict, bytes]:
    """One HTTP response off a socket file: status, headers, body."""
    status = int(stream.readline().split(b" ", 2)[1])
    headers = {}
    while True:
        line = stream.readline().strip()
        if not line:
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers["content-length"]))


def get_healthz(close: bool = False) -> bytes:
    extra = "Connection: close\r\n" if close else ""
    return f"GET /healthz HTTP/1.1\r\nHost: test\r\n{extra}\r\n".encode()


class TestClientReuse:
    def test_one_thread_rides_one_connection(self, make_service):
        service, client = make_service()
        requests = [
            MapRequest(design=design, library="CMOS3", max_depth=depth)
            for design in ("chu-ad-opt", "vanbek-opt")
            for depth in (2, 3, 4, 5, 3)
        ]
        responses = [client.map(request) for request in requests]
        assert connections(service) == 1
        for request, response in zip(requests, responses):
            direct = execute_map(request, cache_dir=anncache.DISABLED)
            assert comparable(response.to_payload()) == comparable(
                direct.to_payload()
            )

    def test_threads_sharing_a_client_open_one_connection_each(
        self, make_service
    ):
        service, client = make_service()
        both_connected = threading.Barrier(2, timeout=10)

        def _calls():
            client.health()
            both_connected.wait()
            for _ in range(3):
                client.health()

        threads = [threading.Thread(target=_calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert connections(service) == 2
        client.close()

    def test_a_dropped_idle_connection_is_replaced_without_error(
        self, make_service, monkeypatch
    ):
        monkeypatch.setattr(daemon, "SOCKET_TIMEOUT_SECONDS", 0.5)
        service, client = make_service()
        assert client.health()["status"] == "ok"
        # Idle past the daemon's socket timeout: it hangs up, and the
        # client finds out only when it sends the next request.
        time.sleep(1.0)
        assert client.health()["status"] == "ok"
        assert connections(service) == 2


class TestRawConnection:
    def test_two_requests_on_one_connection_then_close(self, make_service):
        service, client = make_service()
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=REPLY_WAIT_SECONDS
        ) as sock, sock.makefile("rb") as stream:
            sock.sendall(get_healthz())
            status, headers, body = read_reply(stream)
            assert status == 200
            assert "connection" not in headers
            assert json.loads(body)["status"] == "ok"
            # Same connection, asking the daemon to hang up afterwards.
            sock.sendall(get_healthz(close=True))
            status, headers, body = read_reply(stream)
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            assert stream.read() == b""
        assert connections(service) == 1


class TestShutdown:
    def test_running_exits_promptly_past_idle_connections(self):
        service = MappingService(
            ServiceConfig(port=0, cache_dir=anncache.DISABLED)
        )
        with contextlib.ExitStack() as stack:
            with service.running():
                client = stack.enter_context(
                    contextlib.closing(ServiceClient(service.url))
                )
                # A kept-alive connection after one request, and one
                # that never sent a request: both handlers wait on a read.
                client.health()
                stack.enter_context(
                    socket.create_connection(("127.0.0.1", service.port))
                )
                deadline = time.monotonic() + REPLY_WAIT_SECONDS
                while (
                    connections(service) < 2 and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                started = time.monotonic()
            assert time.monotonic() - started < 2.0
            assert connections(service) == 2
