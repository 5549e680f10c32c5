#!/usr/bin/env python
"""CI smoke for the serving daemon: boot, mixed traffic, counted drain.

Boots ``python -m repro serve`` as a real subprocess, drives a mixed
request workload over its two work endpoints (map / map+verify /
map+explain on ``/v1/map``, certify on ``/v1/certify``) through the
client, and asserts:

* every response is well-formed and verifies, and the explain log
  attached to the map response validates and renders;
* the ``/metrics`` counters match the request mix exactly;
* the warm service annotated its library exactly once
  (``library.annotate.calls == 1`` across all mapping traffic);
* SIGTERM drains cleanly (exit 0) and the shutdown trace/metrics
  artifacts are valid JSON documents (uploaded by CI on failure).

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py \
        [--trace service_trace.json] [--metrics service_metrics.json]
"""

from __future__ import annotations

import argparse
import signal
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import CertifyRequest, MapRequest  # noqa: E402
from repro.obs.explain import (  # noqa: E402
    render_explain,
    validate_explain_payload,
)
from repro.service.client import ServiceClient  # noqa: E402


def _fail(message: str) -> None:
    print(f"service smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def _expect(label: str, actual, expected) -> None:
    if actual != expected:
        _fail(f"{label}: expected {expected!r}, got {actual!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="service_trace.json")
    parser.add_argument("--metrics", default="service_metrics.json")
    parser.add_argument("--library", default="CMOS3")
    args = parser.parse_args(argv)

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--no-cache",
            "--preload", args.library,
            "--trace", args.trace,
            "--metrics-file", args.metrics,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env={**__import__("os").environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    try:
        banner = process.stdout.readline().strip()
        if not banner.startswith("serving on http://"):
            _fail(f"bad startup banner: {banner!r}")
        client = ServiceClient(banner.split()[-1])
        client.wait_ready(timeout=15)

        # Mixed workload: 4 maps (one verified, one explained), 1 certify.
        plain = client.map(MapRequest(design="dme", library=args.library))
        warm = client.map(MapRequest(design="dme", library=args.library))
        checked = client.map(
            MapRequest(design="vanbek-opt", library=args.library, verify=True)
        )
        explained = client.map(
            MapRequest(design="chu-ad-opt", library=args.library, explain=True)
        )
        verdict = client.certify(
            CertifyRequest(design="dme", mapped_blif=plain.blif)
        )

        _expect("map status", plain.status, "ok")
        _expect("warm blif identity", warm.blif, plain.blif)
        _expect("warm annotation work", warm.annotate_seconds, 0.0)
        if checked.verify is None or not checked.verify["ok"]:
            _fail(f"verified map failed: {checked.verify!r}")
        try:
            validate_explain_payload(explained.explain)
        except ValueError as exc:
            _fail(f"explain payload of the map response: {exc}")
        if not render_explain(explained.explain):
            _fail("explain payload rendered no report lines")
        if not verdict.certified:
            _fail(f"certify endpoint verdict: {verdict!r}")

        metrics = client.metrics()["metrics"]

        def counter(name: str) -> int:
            return metrics.get(name, {}).get("value", 0)

        _expect("service.requests", counter("service.requests"), 5)
        _expect("service.requests.map", counter("service.requests.map"), 4)
        if "service.requests.explain" in metrics:
            _fail("an explain counter exists; explain rides on /v1/map")
        _expect(
            "service.requests.certify", counter("service.requests.certify"), 1
        )
        _expect("service.errors", counter("service.errors"), 0)
        _expect(
            "library.annotate.calls (preload only)",
            counter("library.annotate.calls"),
            1,
        )

        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=30)
        _expect("daemon exit status", code, 0)

        import json

        for path, schema in (
            (args.trace, "repro-trace/v1"),
            (args.metrics, "repro-metrics/v1"),
        ):
            document = json.loads(Path(path).read_text())
            _expect(f"{path} schema", document.get("schema"), schema)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)

    print(
        "service smoke passed: 5 requests (4 map, one explained / 1 certify), "
        "counters exact, 1 annotation, clean drain"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
