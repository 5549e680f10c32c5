"""``ServiceClient`` — the stdlib HTTP client for ``repro serve``.

The service tests, the smoke harnesses, and the serving benchmark all
talk to the daemon through this one class, so the wire contract
(``repro-api/v1`` map and certify payloads over JSON/HTTP) is
exercised the same way everywhere.  Built on ``urllib.request`` — the
service stack adds no dependencies.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
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
    """A thin, synchronous client for one service instance."""

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

    # -- transport --------------------------------------------------

    def _request_raw(
        self, method: str, path: str, payload: Optional[dict]
    ) -> bytes:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if self.trace_context is not None:
            headers[TRACE_HEADER] = self.trace_context.header_value()
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            body = exc.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(body).get("error", body)
            except ValueError:
                message = body or exc.reason
            retry_after = exc.headers.get("Retry-After")
            raise ServiceError(
                exc.code,
                str(message),
                float(retry_after) if retry_after else None,
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {url}: {exc.reason}") from exc

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
