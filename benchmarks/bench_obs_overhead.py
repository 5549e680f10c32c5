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

The configurations are interleaved: a round maps each design under
all four back to back, starting from a different one at each design,
and a configuration's cost is its seconds over the catalog divided by
the baseline's in the same round, so a host whose speed drifts moves
both sides of a ratio alike.  After an untimed warm-up round (first
calls pay for lazily built tables), the table reports the median of the
per-round ratios and their interquartile range: a budget is resolved
when the IQR is smaller than it.  (Best-of-N times of whole-catalog
runs, one configuration after another, moved by several percent from
run to run on their own.)

The claims are asserted as a *note* in the emitted table, not as a
pytest assertion — wall-clock ratios on shared CI hardware are exactly
the kind of flaky gate ``check_regression.py`` was designed to avoid.
Run locally with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -s
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.reporting import render_table

from .conftest import emit

#: The whole catalog on ACTEL (where the hazard filter fires) and CMOS3,
#: about 0.6 s per configuration and round on a 2-vCPU VM: a smaller
#: slice ran under 0.1 s, where fixed per-run costs and timer noise
#: swamp a 5 % budget.
LIBRARIES = ("ACTEL", "CMOS3")
WORKLOAD = tuple(TABLE5_ORDER)
ROUNDS = 7


def map_design(library, name: str, options: dict) -> float:
    """Wall seconds to build one catalog design and map it."""
    start = time.perf_counter()
    net = synthesize_benchmark(name).netlist(name)
    async_tmap(net, library, MappingOptions(**options))
    return time.perf_counter() - start


#: The configurations, each as the mapping options of one round (a
#: fresh registry or tracer per round).
CONFIGS = {
    "baseline": lambda: {},
    "metrics": lambda: {"metrics": MetricsRegistry()},
    "traced": lambda: {"tracer": Tracer()},
    "explain": lambda: {"explain": True},
}


def run_round(annotated_libraries, round_: int) -> dict[str, float]:
    """One round: every design under all four configurations back to
    back, starting from a different configuration at each design, and
    each configuration's seconds summed over the catalog."""
    names = list(CONFIGS)
    options = {name: make() for name, make in CONFIGS.items()}
    totals = dict.fromkeys(names, 0.0)
    gc.collect()  # no round pays for the garbage of the last
    index = round_
    for library_name in LIBRARIES:
        library = annotated_libraries[library_name]
        for design in WORKLOAD:
            first = index % len(names)
            index += 1
            for name in names[first:] + names[:first]:
                totals[name] += map_design(library, design, options[name])
    return totals


def test_observability_overhead(annotated_libraries):
    run_round(annotated_libraries, 0)  # warm-up: first-call costs
    names = list(CONFIGS)
    timings = {name: [] for name in names}
    for round_ in range(ROUNDS):
        totals = run_round(annotated_libraries, round_)
        for name in names:
            timings[name].append(totals[name])

    rows = []
    for name in names:
        ratios = [
            run / base - 1.0
            for run, base in zip(timings[name], timings["baseline"])
        ]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        rows.append(
            [
                name,
                f"{statistics.median(timings[name]):.3f}s",
                f"{median * 100.0:+.1f}%",
                f"{(q3 - q1) * 100.0:.1f} pts",
            ]
        )

    note = (
        "Each ratio is a configuration's seconds over the baseline's in the "
        f"same round; the median and IQR are over {ROUNDS} rounds after a\n"
        "warm-up round.  A round maps each design under all four "
        "configurations back to back.  A budget is resolved when the IQR\n"
        "is below it.\n"
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
            [
                "Config",
                f"Median of {ROUNDS}",
                "vs baseline (median)",
                "IQR",
            ],
            rows,
            title=(
                "Observability overhead on the Table-5 catalog "
                "(ACTEL + CMOS3, depth 5)"
            ),
        )
        + "\n\n"
        + note,
    )
