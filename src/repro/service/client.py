"""``ServiceClient`` — the stdlib HTTP client for ``repro serve``.

The service tests, the smoke harnesses, and the serving benchmark all
talk to the daemon through this one class, so the wire contract
(``repro-api/v1`` map and certify payloads over JSON/HTTP) is
exercised the same way everywhere.  Built on ``http.client`` — the
service stack adds no dependencies.

Each thread that calls a client gets one persistent HTTP/1.1
connection and sends every request over it, so a request pays no TCP
handshake and the daemon no new handler thread.  When a kept
connection turns out to be gone before any byte of the answer arrived
(the daemon dropped it while it sat idle, say), the request is sent
once more on a fresh connection; both work endpoints are idempotent.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Optional, Union

from ..api.schema import (
    CertifyRequest,
    CertifyResponse,
    MapRequest,
    MapResponse,
)
from ..obs.tracer import TRACE_HEADER, SpanContext


class ServiceError(RuntimeError):
    """A non-2xx verdict from the service (or a transport failure)."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Parsed ``Retry-After`` header on 429/503 verdicts, else None.
        self.retry_after = retry_after


class ServiceClient:
    """A thin, synchronous client for one service instance.

    Safe to share between threads: each keeps a connection of its own.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        trace_context: Optional[SpanContext] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: When set, every request carries it in ``X-Repro-Trace`` so
        #: the daemon's spans (and its workers') join the caller's
        #: trace; responses then include the stitched subtree under a
        #: ``trace`` key for the caller to graft.
        self.trace_context = trace_context
        #: ``HOST:PORT`` of the ``http://HOST:PORT`` base URL.
        self._address = self.base_url.split("://", 1)[-1]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close the connection of every thread that used the client.

        Call it once no thread is sending; a later request opens a
        fresh connection.
        """
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    # -- transport --------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (it opens on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._address, timeout=self.timeout
            )
            self._local.connection = connection
            with self._lock:
                self._connections.append(connection)
        return connection

    def _request_raw(
        self, method: str, path: str, payload: Optional[dict]
    ) -> bytes:
        data = None
        headers = {"Accept": "application/json"}
        if self.trace_context is not None:
            headers[TRACE_HEADER] = self.trace_context.header_value()
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        # Only a connection kept from an earlier request can have been
        # dropped under us; a fresh one that fails is a real failure.
        reused = connection.sock is not None
        try:
            while True:
                try:
                    connection.request(method, path, body=data, headers=headers)
                    response = connection.getresponse()
                    break
                except ConnectionError:
                    connection.close()
                    if not reused:
                        raise
                    reused = False
            raw = response.read()
        except (http.client.HTTPException, OSError) as exc:
            connection.close()
            raise ServiceError(
                0, f"cannot reach {self.base_url}{path}: {exc}"
            ) from exc
        if response.status >= 400:
            body = raw.decode("utf-8", errors="replace")
            try:
                message = json.loads(body).get("error", body)
            except ValueError:
                message = body or response.reason
            retry_after = response.getheader("Retry-After")
            raise ServiceError(
                response.status,
                str(message),
                float(retry_after) if retry_after else None,
            )
        return raw

    def _request(self, method: str, path: str, payload: Optional[dict]) -> dict:
        return json.loads(self._request_raw(method, path, payload).decode("utf-8"))

    def _post(self, path: str, payload: dict) -> dict:
        return self._request("POST", path, payload)

    # -- typed endpoints --------------------------------------------

    def map(self, request: Union[MapRequest, dict]) -> MapResponse:
        payload = request.to_payload() if isinstance(request, MapRequest) else request
        return MapResponse.from_payload(self._post("/v1/map", payload))

    def certify(
        self, request: Union[CertifyRequest, dict]
    ) -> CertifyResponse:
        payload = (
            request.to_payload() if isinstance(request, CertifyRequest) else request
        )
        return CertifyResponse.from_payload(self._post("/v1/certify", payload))

    # -- operational endpoints --------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz", None)

    def metrics(self) -> dict:
        """The service's ``repro-metrics/v1`` snapshot document."""
        return self._request("GET", "/metrics", None)

    def metrics_prometheus(self) -> str:
        """The service's metrics in Prometheus text exposition format."""
        raw = self._request_raw("GET", "/metrics?format=prometheus", None)
        return raw.decode("utf-8")

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> dict:
        """Poll ``/healthz`` until the service answers (boot handshake)."""
        deadline = time.monotonic() + timeout
        last: Optional[ServiceError] = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except ServiceError as exc:
                last = exc
                time.sleep(interval)
        raise ServiceError(
            0, f"service at {self.base_url} not ready after {timeout}s: {last}"
        )


__all__ = ["ServiceClient", "ServiceError"]
