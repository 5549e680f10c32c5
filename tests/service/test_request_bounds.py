"""Hostile request framing over raw sockets: bounded, never trusted.

A body must declare a non-negative integer ``Content-Length`` no larger
than :data:`repro.service.daemon.MAX_BODY_BYTES`; a client that stalls
mid-body loses its connection after the socket timeout instead of
holding a handler thread.  Every case must leave the daemon serving.
"""

from __future__ import annotations

import json
import socket
import time

from repro.service import daemon

#: How long a test waits for the daemon's reply (or hang-up).
REPLY_WAIT_SECONDS = 5.0


def exchange(service, head: bytes, body: bytes = b"") -> bytes:
    """Send raw request bytes; return everything until the server closes."""
    with socket.create_connection(
        ("127.0.0.1", service.port), timeout=REPLY_WAIT_SECONDS
    ) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post_head(length_header: str = "", extra: str = "") -> bytes:
    return (
        "POST /v1/map HTTP/1.1\r\nHost: test\r\n"
        "Content-Type: application/json\r\n"
        f"{length_header}{extra}\r\n"
    ).encode("ascii")


def status_of(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


def error_of(reply: bytes) -> str:
    return json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"]


def assert_still_serving(client) -> None:
    assert client.health()["status"] == "ok"


class TestContentLength:
    def test_negative_length_answers_400(self, make_service):
        service, client = make_service()
        reply = exchange(service, post_head("Content-Length: -1\r\n"), b"{}")
        assert status_of(reply) == 400
        assert "Content-Length" in error_of(reply)
        assert service.metrics.counter("service.errors").value == 1
        assert_still_serving(client)

    def test_non_integer_length_answers_400(self, make_service):
        service, client = make_service()
        reply = exchange(service, post_head("Content-Length: abc\r\n"), b"{}")
        assert status_of(reply) == 400
        assert "'abc'" in error_of(reply)
        assert_still_serving(client)

    def test_body_without_length_answers_400(self, make_service):
        service, client = make_service()
        body = b"2\r\n{}\r\n0\r\n\r\n"
        reply = exchange(
            service, post_head(extra="Transfer-Encoding: chunked\r\n"), body
        )
        assert status_of(reply) == 400
        assert "needs a Content-Length" in error_of(reply)
        assert_still_serving(client)

    def test_oversized_length_answers_413_unread(self, make_service):
        service, client = make_service()
        # Only the headers are sent: the 413 must come back without the
        # daemon waiting for the declared body.
        declared = daemon.MAX_BODY_BYTES + 1
        reply = exchange(service, post_head(f"Content-Length: {declared}\r\n"))
        assert status_of(reply) == 413
        assert service.metrics.counter("service.rejected.413").value == 1
        assert_still_serving(client)


class TestStalledClient:
    def test_short_body_is_dropped_after_the_socket_timeout(
        self, make_service, monkeypatch
    ):
        monkeypatch.setattr(daemon, "SOCKET_TIMEOUT_SECONDS", 0.5)
        service, client = make_service()
        started = time.monotonic()
        # Declares 100 bytes, sends 2, then waits: the daemon must hang
        # up on its own once the socket timeout expires.
        reply = exchange(service, post_head("Content-Length: 100\r\n"), b"{}")
        assert reply == b""
        assert time.monotonic() - started < REPLY_WAIT_SECONDS
        assert_still_serving(client)
