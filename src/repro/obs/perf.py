"""The ``repro perf`` workload runner behind ``BENCH_mapping.json``.

Replays the paper's Table-5 experiment — async-map every burst-mode
benchmark onto one library — and records, per benchmark, the wall time,
mapped area/cell counts, covering work (cones, matches, hazard-filter
invocations), and the certifier's ``verify`` verdict (the same one
``repro map --verify`` prints).  The snapshot (schema
``repro-bench-mapping/v1``) is what ``benchmarks/check_regression.py``
diffs against the committed baseline: quality fields must match
exactly; timings may drift within a tolerance.

The library is annotated once up front (the Table-2 initialization
cost, reported separately as ``annotate_seconds``); no mapping state
carries over from one benchmark to the next, so per-benchmark numbers
are independent of catalog order.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark
from ..library.library import Library
from ..library.standard import load_library
from ..mapping.mapper import MappingOptions, MappingResult, async_tmap
from .export import BENCH_SCHEMA
from .metrics import MetricsRegistry
from .tracer import Tracer

#: The two sub-second catalog entries — the CI smoke-gate workload.
SMOKE_BENCHMARKS = ("chu-ad-opt", "vanbek-opt")


def benchmark_entry(
    result: MappingResult,
    verify: bool,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> dict:
    """One benchmark's snapshot row from its mapping result."""
    stats = result.stats
    entry = {
        "map_seconds": round(result.elapsed, 4),
        "area": result.area,
        "delay": round(result.delay, 4),
        "cells": int(sum(result.cell_usage().values())),
        "cell_usage": {k: int(v) for k, v in sorted(result.cell_usage().items())},
        "cones": stats.cones,
        "matches": stats.matches,
        "filter_invocations": stats.filter_invocations,
    }
    if verify:
        from ..api.facade import certify_verdict

        entry["verify"] = certify_verdict(
            result, metrics=metrics, tracer=tracer
        )
    return entry


def run_perf(
    benchmarks: Optional[Sequence[str]] = None,
    library: str | Library = "CMOS3",
    max_depth: int = 5,
    verify: bool = True,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress=None,
) -> dict:
    """Run the Table-5 workload and return a bench-snapshot dict.

    ``progress`` is an optional ``callable(name, entry)`` invoked after
    each benchmark (the CLI prints a row per call).
    """
    names = list(benchmarks) if benchmarks else list(TABLE5_ORDER)
    lib = library if isinstance(library, Library) else load_library(library)

    annotate_start = time.perf_counter()
    report = lib.annotate_hazards(tracer=tracer, metrics=metrics)
    annotate_seconds = time.perf_counter() - annotate_start

    rows: dict[str, dict] = {}
    for name in names:
        network = synthesize_benchmark(name).netlist(name)
        options = MappingOptions(
            max_depth=max_depth, tracer=tracer, metrics=metrics
        )
        result = async_tmap(network, lib, options)
        entry = benchmark_entry(result, verify, metrics, tracer)
        rows[name] = entry
        if progress is not None:
            progress(name, entry)

    return {
        "schema": BENCH_SCHEMA,
        "library": lib.name,
        "max_depth": max_depth,
        "annotate_seconds": round(annotate_seconds, 4),
        "annotate_source": report.source,
        "benchmarks": rows,
    }
