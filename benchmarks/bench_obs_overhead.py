"""Overhead of the observability layer on the Table-5 workload.

The tracing/metrics design budget is <5% overhead with tracing
*disabled* (the default: every instrumented call site sees
``NULL_TRACER``, a shared no-op context manager).  This harness
measures four configurations over the whole Table-5 catalog on ACTEL
and CMOS3 and reports relative cost:

* ``baseline``  — no tracer, no registry (post-instrumentation default);
* ``metrics``   — a live ``MetricsRegistry`` (absorbed once per run);
* ``traced``    — a live ``Tracer`` recording the full span tree;
* ``explain``   — the full decision-provenance recorder
  (``MappingOptions(explain=True)``), including witness extraction for
  every hazard rejection.

The explain layer's own budget is stricter: <1% with explain *disabled*
(the baseline row — its hot path is one ``explain is None`` check per
match), which is what the per-match gating buys.  Enabled explain is
allowed to cost real time; it does work proportional to the number of
candidates examined.

The claims are asserted as a *note* in the emitted table, not as a
pytest assertion — wall-clock ratios on shared CI hardware are exactly
the kind of flaky gate ``check_regression.py`` was designed to avoid.
Run locally with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -s
"""

from __future__ import annotations

import time

from repro.burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.reporting import render_table

from .conftest import emit

#: The whole catalog on ACTEL (where the hazard filter fires) and CMOS3,
#: about 1 s per config and repeat on a 2-vCPU VM: a smaller slice ran
#: under 0.1 s, where fixed per-run costs and timer noise swamp a 5 %
#: budget.  On a noisy shared host the rows still move by several
#: percent between runs.
LIBRARIES = ("ACTEL", "CMOS3")
WORKLOAD = tuple(TABLE5_ORDER)
REPEATS = 7


def run_workload(
    annotated_libraries, tracer=None, metrics=None, explain=False
) -> float:
    start = time.perf_counter()
    for library_name in LIBRARIES:
        library = annotated_libraries[library_name]
        for name in WORKLOAD:
            net = synthesize_benchmark(name).netlist(name)
            async_tmap(
                net,
                library,
                MappingOptions(
                    tracer=tracer, metrics=metrics, explain=explain
                ),
            )
    return time.perf_counter() - start


def test_observability_overhead(annotated_libraries):
    configs = {
        "baseline": lambda: run_workload(annotated_libraries),
        "metrics": lambda: run_workload(
            annotated_libraries, metrics=MetricsRegistry()
        ),
        "traced": lambda: run_workload(annotated_libraries, tracer=Tracer()),
        "explain": lambda: run_workload(annotated_libraries, explain=True),
    }
    timings = {name: [] for name in configs}
    for _ in range(REPEATS):
        for name, runner in configs.items():
            timings[name].append(runner())

    best = {name: min(values) for name, values in timings.items()}
    rows = []
    for name in configs:
        ratio = best[name] / best["baseline"] - 1.0
        rows.append([name, f"{best[name]:.3f}s", f"{ratio * +100.0:+.1f}%"])

    note = (
        "Budget: disabled-path (baseline vs pre-instrumentation) overhead "
        "<5%; explain-disabled overhead <1%.  The baseline row IS both\n"
        "disabled paths — all call sites run against NULL_TRACER/no "
        "registry, and the covering DP pays one `explain is None` check\n"
        "per match.  Enabled tracing stays cheap because spans are "
        "per-phase/per-cone; enabled explain does per-candidate work\n"
        "(records plus witness extraction per hazard rejection), so its "
        "row is expected to cost real time."
    )
    emit(
        "obs_overhead",
        render_table(
            ["Config", f"Best of {REPEATS}", "vs baseline"],
            rows,
            title=(
                "Observability overhead on the Table-5 catalog "
                "(ACTEL + CMOS3, depth 5)"
            ),
        )
        + "\n\n"
        + note,
    )
