"""Observability for the mapping pipeline: tracing, metrics, export.

The async mapper's production story ("map heavy traffic as fast as the
hardware allows") needs the same instrumentation a serving stack would
have.  This package supplies it without touching the hot path when
disabled:

* :class:`Tracer` / :data:`NULL_TRACER` — hierarchical, thread-safe
  span trees over decompose → partition → cluster-enumerate →
  match/filter → cover (``repro map --trace out.json``);
* :class:`MetricsRegistry` — counters/gauges/histograms that absorb
  the merged ``CoverStats`` counters and phase timings;
* :mod:`repro.obs.export` — version-stamped JSON contracts for traces,
  metrics, and the ``BENCH_mapping.json`` perf snapshots that
  ``benchmarks/check_regression.py`` gates;
* :mod:`repro.obs.explain` — the witness-backed decision log behind
  ``repro map --explain`` / ``repro explain``: every (cluster, cell)
  candidate the covering DP examined, with hazard rejections carrying a
  replayable :class:`~repro.hazards.witness.HazardWitness`.
"""

from .explain import (
    EXPLAIN_SCHEMA,
    CandidateRecord,
    ConeExplain,
    ExplainLog,
    render_explain,
    validate_explain_payload,
    verify_explain_witnesses,
)
from .export import (
    BENCH_SCHEMA,
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    explain_to_dict,
    load_bench_snapshot,
    load_explain,
    metrics_to_dict,
    parse_prometheus_text,
    prometheus_text,
    trace_to_dict,
    write_bench_snapshot,
    write_explain,
    write_metrics,
    write_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .regression import (
    DEFAULT_MIN_SECONDS,
    DEFAULT_TOLERANCE,
    QUALITY_FIELDS,
    compare_snapshots,
)
from .tracer import (
    NULL_TRACER,
    TRACE_HEADER,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
)

__all__ = [
    "BENCH_SCHEMA",
    "CandidateRecord",
    "ConeExplain",
    "Counter",
    "DEFAULT_MIN_SECONDS",
    "DEFAULT_TOLERANCE",
    "EXPLAIN_SCHEMA",
    "ExplainLog",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QUALITY_FIELDS",
    "Span",
    "SpanContext",
    "TRACE_HEADER",
    "TRACE_SCHEMA",
    "Tracer",
    "compare_snapshots",
    "explain_to_dict",
    "load_bench_snapshot",
    "load_explain",
    "metrics_to_dict",
    "parse_prometheus_text",
    "prometheus_text",
    "render_explain",
    "trace_to_dict",
    "validate_explain_payload",
    "verify_explain_witnesses",
    "write_bench_snapshot",
    "write_explain",
    "write_metrics",
    "write_trace",
]
