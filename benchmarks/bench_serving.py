#!/usr/bin/env python
"""Warm-vs-cold serving benchmark: the daemon must amortize annotation.

Boots an in-process ``repro.service`` instance, maps each smoke
benchmark once cold and several times warm, and proves the serving
claim end to end:

* the *first* request pays library hazard annotation (Table 2) and the
  matching-index build; every later request runs only the per-request
  phases (decompose, match+filter, cover) — verified against the
  ``library.annotate.calls`` counter, which must stay at exactly 1 no
  matter how many requests are served;
* every response — cold or warm — is **byte-identical** to a cold
  one-shot ``map_network`` run of the same request (same BLIF text,
  same SHA-256 digest);
* warm responses report ``annotate_seconds == 0`` and no annotation
  source;
* every request rides one kept-alive connection: the service's
  ``service.connections`` counter must read exactly 1.  The median
  latency of the warm requests is printed.

The warm responses are also folded into a ``repro-bench-mapping/v1``
snapshot (quality fields from the wire payloads) so CI can hold served
results to the committed baseline via ``check_regression.py --subset``::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --output serving_bench.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        --baseline BENCH_mapping.json --fresh serving_bench.json \
        --subset --tolerance 2.0 --min-seconds 1.0
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import MapRequest, netlist_blif  # noqa: E402
from repro.api.facade import clear_library_cache  # noqa: E402
from repro.library import anncache  # noqa: E402
from repro.mapping.mapper import MappingOptions, map_network  # noqa: E402
from repro.obs.export import (  # noqa: E402
    BENCH_SCHEMA,
    bench_row,
    write_bench_snapshot,
)
from repro.reporting import render_table  # noqa: E402
from repro.service import MappingService, ServiceConfig  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402


#: The two sub-second catalog entries the CI gate serves.
DESIGNS = ("chu-ad-opt", "vanbek-opt")


def _fail(message: str) -> None:
    print(f"serving benchmark FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmarks", nargs="*", default=list(DESIGNS)
    )
    parser.add_argument("--library", default="CMOS3")
    parser.add_argument(
        "--repeats", type=int, default=3, help="warm requests per benchmark"
    )
    parser.add_argument(
        "--depth", type=int, default=5, help="cluster-enumeration depth"
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the warm-run repro-bench-mapping/v1 snapshot here",
    )
    args = parser.parse_args(argv)

    # Factory-fresh libraries so the cold request really is cold.
    clear_library_cache()

    config = ServiceConfig(
        port=0, workers=1, cache_dir=anncache.DISABLED
    )
    rows = []
    snapshot_rows: dict[str, dict] = {}
    cold_annotate = 0.0
    all_warm_walls = []
    with MappingService(config).running() as service:
        client = ServiceClient(service.url)
        client.wait_ready()
        for index, name in enumerate(args.benchmarks):
            request = MapRequest(
                design=name,
                library=args.library,
                max_depth=args.depth,
                verify=True,
            )
            start = time.perf_counter()
            cold = client.map(request)
            cold_wall = time.perf_counter() - start
            if index == 0:
                if cold.annotate_source != "cold":
                    _fail(
                        f"first request reported annotation source "
                        f"{cold.annotate_source!r}, expected 'cold'"
                    )
                cold_annotate = cold.annotate_seconds

            warm_walls = []
            warm = cold
            for _ in range(args.repeats):
                start = time.perf_counter()
                warm = client.map(request)
                warm_walls.append(time.perf_counter() - start)
                if warm.annotate_seconds != 0.0 or warm.annotate_source:
                    _fail(
                        f"warm request for {name} did annotation work "
                        f"({warm.annotate_seconds}s, "
                        f"source={warm.annotate_source!r})"
                    )
            all_warm_walls.extend(warm_walls)
            if warm.blif != cold.blif or warm.digest != cold.digest:
                _fail(f"warm response for {name} drifted from the cold one")

            # Byte-identity vs a cold one-shot run outside the service.
            reference = map_network(
                name,
                args.library,
                MappingOptions(max_depth=args.depth),
                mode="async",
            )
            if warm.blif != netlist_blif(reference.mapped):
                _fail(
                    f"served netlist for {name} differs from a one-shot "
                    f"map_network run"
                )

            rows.append(
                (
                    name,
                    f"{cold_wall:.3f}s",
                    f"{min(warm_walls):.3f}s",
                    f"{warm.map_seconds:.3f}s",
                    f"{cold_wall / min(warm_walls):.1f}x"
                    if min(warm_walls) > 0
                    else "-",
                )
            )
            snapshot_rows[name] = bench_row(warm.to_payload())

        metrics = client.metrics()["metrics"]
        calls = metrics.get("library.annotate.calls", {}).get("value", 0)
        total = metrics.get("service.requests.map", {}).get("value", 0)
        connections = service.metrics.counter("service.connections").value
        client.close()

    if connections != 1:
        _fail(
            f"{connections} connections carried the requests; one client "
            "thread must keep a single connection open"
        )
    if calls != 1:
        _fail(
            f"library.annotate.calls is {calls} after {total} requests; "
            "the warm service must annotate exactly once"
        )

    print(
        render_table(
            ["Benchmark", "Cold", "Warm best", "Warm map", "Speedup"],
            rows,
            title=(
                f"Warm-vs-cold serving ({args.library}, depth {args.depth}; "
                f"{total} requests, 1 annotation)"
            ),
        )
    )
    print(
        f"annotation: paid once ({cold_annotate:.3f}s on the cold request), "
        f"amortized over {total} requests; library.annotate.calls={calls}"
    )
    print(
        f"warm requests: median {statistics.median(all_warm_walls) * 1e3:.1f} ms "
        f"over {len(all_warm_walls)}, on {connections} connection"
    )

    if args.output:
        snapshot = {
            "schema": BENCH_SCHEMA,
            "library": args.library,
            "max_depth": args.depth,
            "annotate_seconds": cold_annotate,
            "annotate_source": "cold",
            "benchmarks": snapshot_rows,
        }
        write_bench_snapshot(args.output, snapshot)
        print(f"warm-serving snapshot written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
