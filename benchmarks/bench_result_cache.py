#!/usr/bin/env python
"""Cold-vs-warm batch benchmark for the content-addressed result cache.

Runs the catalog through ``repro batch`` three times on the same
machine:

1. **baseline** — result cache disabled (the reference netlists);
2. **cold**     — result cache enabled against an empty cache directory
   (pays full mapping, stores every response);
3. **warm**     — the same run again (every job replays a stored
   response).

and proves the whole-mapping-reuse claim end to end:

* every run's per-job netlist digests are **byte-identical** — the
  cache never changes a mapping, it only skips recomputing one;
* every warm record was actually served from the cache (``cached`` is
  ``memory`` or ``disk``);
* the warm run is at least ``--min-speedup`` times faster than the
  cold run (default 5x).

Both the cold and the warm run are recorded as
``repro-bench-mapping/v1`` snapshots so ``check_regression.py
--subset`` can gate their quality against the committed baseline.
Warm rows replay the stored responses verbatim, so their
``map_seconds`` are the *originating* (cold) timings — quality fields
are what the warm snapshot gates; the speedup is asserted on batch
wall-clock here::

    PYTHONPATH=src python benchmarks/bench_result_cache.py \
        --cold-output result_cache_cold.json \
        --warm-output result_cache_warm.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        --baseline BENCH_mapping.json --fresh result_cache_warm.json \
        --subset --tolerance 2.0 --min-seconds 1.0
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.batch import BatchConfig, BatchJob, run_batch  # noqa: E402
from repro.burstmode.benchmarks import TABLE5_ORDER  # noqa: E402
from repro.cache import resultcache  # noqa: E402
from repro.obs.export import write_bench_snapshot  # noqa: E402
from repro.reporting import render_table  # noqa: E402


def _fail(message: str) -> None:
    print(f"result-cache benchmark FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def _digests(report) -> dict:
    return {r["job_id"]: r.get("digest") for r in report.results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=list(TABLE5_ORDER),
        help="designs to map (default: the full Table-5 catalog)",
    )
    parser.add_argument("--library", default="CMOS3")
    parser.add_argument(
        "--depth", type=int, default=5, help="cluster-enumeration depth"
    )
    parser.add_argument(
        "--backend",
        default="processes",
        choices=("serial", "processes"),
        help="batch executor backend (default: processes)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="batch fan-out (0 = one per CPU core)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required cold/warm wall-clock ratio (default: 5.0)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="reuse this cache directory instead of a fresh tempdir",
    )
    parser.add_argument(
        "--cold-output",
        default=None,
        metavar="FILE",
        help="write the cold-run repro-bench-mapping/v1 snapshot here",
    )
    parser.add_argument(
        "--warm-output",
        default=None,
        metavar="FILE",
        help="write the warm-run repro-bench-mapping/v1 snapshot here",
    )
    args = parser.parse_args(argv)

    def jobs():
        # verify=True so rows carry verdicts and the snapshots gate
        # cleanly against the committed (verified) baseline; warm runs
        # replay the stored verdicts without re-verifying.
        return [
            BatchJob(
                design=name,
                library=args.library,
                max_depth=args.depth,
                verify=True,
            )
            for name in args.benchmarks
        ]

    def run(label: str, cache_dir: str, cached: bool):
        report = run_batch(
            jobs(),
            BatchConfig(
                backend=args.backend,
                workers=args.workers,
                cache_dir=cache_dir,
                result_cache=cached,
            ),
        )
        if not report.ok:
            _fail(f"{label} run did not complete cleanly: {report.counts()}")
        return report

    with tempfile.TemporaryDirectory(prefix="repro-result-cache-") as tmp:
        cache_dir = args.cache_dir or tmp
        resultcache.MEMORY.clear()

        # The baseline also warms the (shared) annotation cache, so the
        # cold run below pays mapping + store, nothing else — the
        # speedup measured here is the result cache's alone.
        baseline = run("baseline", cache_dir, cached=False)
        cold = run("cold", cache_dir, cached=True)
        warm = run("warm", cache_dir, cached=True)

        stored = len(resultcache.result_entries(cache_dir))

    reference = _digests(baseline)
    for label, report in (("cold", cold), ("warm", warm)):
        drifted = [
            job_id
            for job_id, digest in _digests(report).items()
            if digest != reference[job_id]
        ]
        if drifted:
            _fail(
                f"{label} run netlists drifted from the cache-disabled "
                f"baseline: {drifted}"
            )
    missed = [
        r["job_id"]
        for r in warm.results
        if r.get("cached") not in ("memory", "disk")
    ]
    if missed:
        _fail(f"warm run recomputed instead of replaying: {missed}")
    if stored < len(args.benchmarks):
        _fail(
            f"cold run stored {stored} entries for "
            f"{len(args.benchmarks)} jobs"
        )

    speedup = cold.elapsed / warm.elapsed if warm.elapsed > 0 else float("inf")
    print(
        render_table(
            ["Run", "Result cache", "Elapsed", "Jobs", "Speedup"],
            [
                ("baseline", "off", f"{baseline.elapsed:.3f}s", len(baseline.results), "-"),
                ("cold", "on (empty)", f"{cold.elapsed:.3f}s", len(cold.results), "-"),
                ("warm", "on (full)", f"{warm.elapsed:.3f}s", len(warm.results), f"{speedup:.1f}x"),
            ],
            title=(
                f"Result-cache batch reuse ({args.library}, depth "
                f"{args.depth}, {args.backend} backend)"
            ),
        )
    )
    print(
        f"netlists byte-identical across all three runs; "
        f"{stored} entries stored; warm speedup {speedup:.1f}x "
        f"(required {args.min_speedup:.1f}x)"
    )

    if speedup < args.min_speedup:
        _fail(
            f"warm run speedup {speedup:.2f}x is below the required "
            f"{args.min_speedup:.1f}x"
        )

    if args.cold_output:
        write_bench_snapshot(
            args.cold_output, cold.to_bench_snapshot(args.depth)
        )
        print(f"cold-run snapshot written to {args.cold_output}")
    if args.warm_output:
        write_bench_snapshot(
            args.warm_output, warm.to_bench_snapshot(args.depth)
        )
        print(f"warm-run snapshot written to {args.warm_output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
