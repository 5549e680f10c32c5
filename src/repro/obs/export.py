"""JSON export of traces, metrics, and benchmark snapshots.

Three on-disk contracts live here, each version-stamped:

* ``repro-trace/v1`` — a span forest (``Tracer.to_dict``) plus an
  optional metrics snapshot, written by ``repro map|batch|serve
  --trace``;
* ``repro-metrics/v1`` — a standalone metrics snapshot;
* ``repro-bench-mapping/v1`` — the ``BENCH_mapping.json`` benchmark
  snapshot written by ``repro batch --bench-snapshot`` (one
  :func:`bench_row` per job) and diffed by
  ``benchmarks/check_regression.py`` (schema documented in the README's
  Observability section);
* ``repro-explain/v1`` — the witness-backed mapping decision log
  written by ``repro map --explain`` and rendered by ``repro explain``
  (schema owned by :mod:`repro.obs.explain`);
* ``repro-batch/v1`` — the fsynced JSONL checkpoint journal written by
  ``repro batch`` (schema and validator owned by
  :mod:`repro.batch.journal`; lives there rather than here because the
  journal is an append-only event log, not a one-shot JSON document).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Optional, Union

from .explain import EXPLAIN_SCHEMA, ExplainLog, validate_explain_payload
from .metrics import MetricsRegistry
from .tracer import Tracer

TRACE_SCHEMA = "repro-trace/v1"
METRICS_SCHEMA = "repro-metrics/v1"
BENCH_SCHEMA = "repro-bench-mapping/v1"
#: Conformance certificates (schema owned by
#: :mod:`repro.conformance.certifier`; the stamp lives here so the
#: exporters need no import from the conformance layer).
CERT_SCHEMA = "repro-cert/v1"


def _atomic_write_text(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A crash mid-write (SIGKILL, disk-full, the service being drained)
    must never leave a consumer — ``repro explain``,
    ``check_regression.py``, a resumed batch — reading a torn JSON
    document.  Same pattern as the annotation cache's ``_write_payload``;
    the temp name is PID-qualified so concurrent writers to the same
    target cannot clobber each other's staging files.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only reached on write failure
            tmp.unlink()
    return path


def trace_to_dict(
    tracer: Tracer, metrics: Optional[MetricsRegistry] = None
) -> dict:
    payload = tracer.to_dict()
    if metrics is not None:
        payload["metrics"] = metrics.snapshot()
    return payload


def write_trace(
    path: Union[str, Path],
    tracer: Tracer,
    metrics: Optional[MetricsRegistry] = None,
) -> Path:
    """Write a trace (and optional metrics snapshot) as pretty JSON."""
    return _atomic_write_text(
        Path(path), json.dumps(trace_to_dict(tracer, metrics), indent=2) + "\n"
    )


def metrics_to_dict(metrics: MetricsRegistry) -> dict:
    return {"schema": METRICS_SCHEMA, "metrics": metrics.snapshot()}


def write_metrics(path: Union[str, Path], metrics: MetricsRegistry) -> Path:
    return _atomic_write_text(
        Path(path), json.dumps(metrics_to_dict(metrics), indent=2) + "\n"
    )


_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)


def _prom_name(name: str) -> str:
    """A dotted repro metric name as a Prometheus metric name."""
    sanitized = _PROM_NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: Union[int, float, bool]) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters become ``name_total``; histograms the standard cumulative
    ``name_bucket{le=...}`` / ``name_sum`` / ``name_count`` series;
    numeric and boolean gauges plain gauges; string gauges (backend
    names, sources) the conventional ``name_info{value="..."} 1``
    shape.  Dotted repro names are sanitized to underscores.
    """
    lines: list[str] = []
    for name, snap in metrics.snapshot().items():
        prom = _prom_name(name)
        kind = snap["type"]
        if kind == "counter":
            lines.append(f"# TYPE {prom}_total counter")
            lines.append(f"{prom}_total {_prom_value(snap['value'])}")
        elif kind == "gauge":
            value = snap["value"]
            if value is None:
                continue
            if isinstance(value, str):
                lines.append(f"# TYPE {prom}_info gauge")
                lines.append(
                    f'{prom}_info{{value="{_prom_escape(value)}"}} 1'
                )
            else:
                lines.append(f"# TYPE {prom} gauge")
                lines.append(f"{prom} {_prom_value(value)}")
        else:  # histogram
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for bound, count in snap.get("buckets", []):
                if bound is None:
                    continue
                cumulative += count
                lines.append(
                    f'{prom}_bucket{{le="{_prom_value(float(bound))}"}} '
                    f"{cumulative}"
                )
            lines.append(f'{prom}_bucket{{le="+Inf"}} {snap["count"]}')
            lines.append(f"{prom}_sum {_prom_value(float(snap['sum']))}")
            lines.append(f"{prom}_count {snap['count']}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict:
    """Parse exposition text back into ``{"types": ..., "samples": ...}``.

    ``types`` maps metric name → declared type; ``samples`` maps
    ``name`` or ``name{labels}`` → float value.  Used by the service
    tests to prove ``/metrics?format=prometheus`` emits well-formed
    exposition, not just non-empty text.
    """
    types: dict[str, str] = {}
    samples: dict[str, float] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _PROM_LINE_RE.match(line)
        if match is None:
            raise ValueError(f"line {number}: not exposition format: {raw!r}")
        labels = match.group("labels")
        key = match.group("name") + (f"{{{labels}}}" if labels else "")
        samples[key] = float(match.group("value"))
    return {"types": types, "samples": samples}


def bench_row(record: dict) -> dict:
    """One design's ``repro-bench-mapping/v1`` row from a map result.

    ``record`` is a batch job result or a ``MapResponse`` payload.
    ``map_seconds`` never includes library annotation (the snapshot
    reports that once, as ``annotate_seconds``), and ``fallback`` names
    a deadline degradation, which the regression gate refuses.
    """
    row = {
        "map_seconds": record.get("map_seconds", 0.0),
        "area": record.get("area"),
        "delay": record.get("delay"),
        "cells": record.get("cells"),
        "cell_usage": record.get("cell_usage"),
        "cones": record.get("cones"),
        "matches": record.get("matches"),
        "filter_invocations": record.get("filter_invocations"),
        "fallback": record.get("fallback"),
    }
    if record.get("verify") is not None:
        row["verify"] = record["verify"]
    return row


def write_bench_snapshot(path: Union[str, Path], snapshot: dict) -> Path:
    """Write a ``repro-bench-mapping/v1`` snapshot (``repro batch
    --bench-snapshot``)."""
    if snapshot.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"benchmark snapshot must carry schema {BENCH_SCHEMA!r}"
        )
    return _atomic_write_text(
        Path(path), json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )


def load_bench_snapshot(path: Union[str, Path]) -> dict:
    """Load and schema-check a ``BENCH_mapping.json`` payload."""
    with open(path) as handle:
        snapshot = json.load(handle)
    if snapshot.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: schema {snapshot.get('schema')!r} is not {BENCH_SCHEMA!r}"
        )
    return snapshot


def write_certificate(path: Union[str, Path], certificate: dict) -> Path:
    """Write a ``repro-cert/v1`` document (``repro certify --json``).

    Accepts the ``to_dict`` payload of a
    :class:`~repro.conformance.certifier.Certificate` (or any dict
    already carrying the stamp) and writes it atomically.
    """
    if certificate.get("schema") != CERT_SCHEMA:
        raise ValueError(f"certificate must carry schema {CERT_SCHEMA!r}")
    return _atomic_write_text(
        Path(path), json.dumps(certificate, indent=2, sort_keys=True) + "\n"
    )


def load_certificate(path: Union[str, Path]) -> dict:
    """Load and schema-check a ``repro-cert/v1`` payload."""
    with open(path) as handle:
        certificate = json.load(handle)
    if certificate.get("schema") != CERT_SCHEMA:
        raise ValueError(
            f"{path}: schema {certificate.get('schema')!r} is not "
            f"{CERT_SCHEMA!r}"
        )
    return certificate


def explain_to_dict(log: Union[ExplainLog, dict]) -> dict:
    """Normalize an explain log (or already-built payload) to JSON form."""
    payload = log.to_dict() if isinstance(log, ExplainLog) else log
    if payload.get("schema") != EXPLAIN_SCHEMA:
        raise ValueError(
            f"explain payload must carry schema {EXPLAIN_SCHEMA!r}"
        )
    return payload


def write_explain(
    path: Union[str, Path], log: Union[ExplainLog, dict]
) -> Path:
    """Write a ``repro-explain/v1`` decision log (``repro map --explain``).

    The payload is validated before writing, so a malformed log fails
    here rather than at the consumer.
    """
    payload = explain_to_dict(log)
    validate_explain_payload(payload)
    return _atomic_write_text(
        Path(path), json.dumps(payload, indent=2) + "\n"
    )


def load_explain(path: Union[str, Path]) -> dict:
    """Load and schema-check a ``repro-explain/v1`` payload."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != EXPLAIN_SCHEMA:
        raise ValueError(
            f"{path}: schema {payload.get('schema')!r} is not "
            f"{EXPLAIN_SCHEMA!r}"
        )
    return payload
