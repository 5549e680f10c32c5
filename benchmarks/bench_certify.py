"""Cost of independent certification relative to mapping itself.

The conformance certifier re-proves equivalence and hazard containment
from scratch (BDD + truth table + event-lattice oracle per transition),
so it is allowed to cost real time — but it must stay *deployable* as a
batch post-pass.  Budget, asserted per benchmark: certification wall
time <= max(2x the mapping wall time, an absolute floor) — the floor
absorbs timer noise on designs that map in a millisecond.  The same
budget holds for a rejection: each benchmark's mapping with a planted
hazard (``seed_hazard``) must be rejected for that hazard, with every
new hazard replayed on the event simulator, within it too.

The run is recorded as a ``repro-bench-mapping/v1`` snapshot at
``benchmarks/results/BENCH_certify.json`` so certify cost is tracked
alongside the mapping numbers: each row is
:func:`~repro.obs.export.bench_row` of the map's response plus its
``certify_*`` keys (``certify_hazard_*`` for the planted variant).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_certify.py -s
"""

from __future__ import annotations

import time

from repro.api import MapRequest, run_map
from repro.burstmode.benchmarks import synthesize_benchmark
from repro.conformance import certify_mapping
from repro.library import anncache
from repro.obs.export import BENCH_SCHEMA, bench_row, write_bench_snapshot
from repro.reporting import render_table
from repro.testing.faults import seed_hazard

from .conftest import RESULTS_DIR, emit

#: Mid-sized slice spanning exhaustive (small-support) and sampled
#: (8-variable support) certifier paths.
WORKLOAD = ("chu-ad-opt", "vanbek-opt", "dme-fast", "pe-send-ifc")
DEPTH = 3
#: Certify may cost up to this multiple of the map wall time ...
RELATIVE_BUDGET = 2.0
#: ... or this many seconds outright, whichever is larger.  The floor
#: covers designs that map in milliseconds but certify with tens of
#: thousands of oracle calls (dme-fast: ~0.25 s on a 2-vCPU VM), with
#: headroom for slower shared CI hardware.
ABSOLUTE_FLOOR = 1.0


def test_certify_cost_within_budget(annotated_libraries):
    library = annotated_libraries["CMOS3"]
    rows = []
    snapshot_rows: dict[str, dict] = {}
    violations = []
    for name in WORKLOAD:
        network = synthesize_benchmark(name).netlist(name)
        response, result = run_map(
            MapRequest(library=library.name, design=name, max_depth=DEPTH),
            library=library,
            cache_dir=anncache.DISABLED,
        )
        map_seconds = response.map_seconds
        budget = max(RELATIVE_BUDGET * map_seconds, ABSOLUTE_FLOOR)

        def timed_certify(label: str, mapped):
            start = time.perf_counter()
            certificate = certify_mapping(network, mapped, library)
            seconds = time.perf_counter() - start
            within = seconds <= budget
            if not within:
                violations.append(
                    f"{label}: certify {seconds:.2f}s > "
                    f"budget {budget:.2f}s (map {map_seconds:.2f}s)"
                )
            rows.append(
                (
                    label,
                    f"{map_seconds:.3f}s",
                    f"{seconds:.3f}s",
                    f"{seconds / max(map_seconds, 1e-9):.1f}x",
                    certificate.transitions_checked,
                    certificate.replays,
                    "ok" if within else "OVER",
                )
            )
            return certificate, seconds

        certificate, certify_seconds = timed_certify(name, result.mapped)
        assert certificate.certified, certificate.violations
        seeded = seed_hazard(result.mapped, network, seed=0)
        assert seeded is not None, name
        rejection, rejection_seconds = timed_certify(
            f"{name}+hazard", seeded.netlist
        )
        assert rejection.verdict == "rejected", name
        assert rejection.equivalent and not rejection.hazard_safe, (
            rejection.violations
        )
        snapshot_rows[name] = {
            **bench_row(response.to_payload()),
            "certify_seconds": round(certify_seconds, 4),
            "certify_transitions": certificate.transitions_checked,
            "certify_verdict": certificate.verdict,
            "certify_hazard_seconds": round(rejection_seconds, 4),
            "certify_hazard_replays": rejection.replays,
            "certify_hazard_verdict": rejection.verdict,
        }

    emit(
        "bench_certify",
        render_table(
            [
                "Benchmark",
                "Map",
                "Certify",
                "Ratio",
                "Transitions",
                "Replays",
                "Budget",
            ],
            rows,
            title=(
                "Certification cost (budget: max("
                f"{RELATIVE_BUDGET:.0f}x map, {ABSOLUTE_FLOOR:.0f}s))"
            ),
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    write_bench_snapshot(
        RESULTS_DIR / "BENCH_certify.json",
        {
            "schema": BENCH_SCHEMA,
            "library": library.name,
            "max_depth": DEPTH,
            "annotate_seconds": 0.0,
            "annotate_source": "session-warm",
            "benchmarks": snapshot_rows,
        },
    )
    assert not violations, "; ".join(violations)
