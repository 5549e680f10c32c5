#!/usr/bin/env python
"""Gate a fresh bench snapshot against the committed baseline.

Usage::

    PYTHONPATH=src python -m repro batch chu-ad-opt vanbek-opt \
        --bench-snapshot /tmp/fresh.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        --baseline BENCH_mapping.json --fresh /tmp/fresh.json --subset \
        [--tolerance 0.20] [--min-seconds 0.05]

Exit status 0 when the fresh snapshot matches the baseline (quality
fields exactly, timings within tolerance, no deadline-fallback row), 1
with a problem listing otherwise.  CI runs this with ``--tolerance 2.0
--min-seconds 1.0`` so shared-runner jitter cannot fail the gate; the
defaults are meant for local runs.  Comparison policy lives in
:mod:`repro.obs.regression`; regenerate the baseline with
``python -m repro batch --libraries CMOS3 --backend serial --workers 1
--verify --no-cache --bench-snapshot BENCH_mapping.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.export import load_bench_snapshot  # noqa: E402
from repro.obs.regression import (  # noqa: E402
    DEFAULT_MIN_SECONDS,
    DEFAULT_TOLERANCE,
    compare_snapshots,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_mapping.json"),
        help="committed baseline snapshot (default: repo-root BENCH_mapping.json)",
    )
    parser.add_argument("--fresh", required=True, help="snapshot of the fresh run")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative slowdown allowed before failing (default 0.20 = +20%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="absolute slowdown ignored regardless of percentage (default 0.05)",
    )
    parser.add_argument(
        "--subset",
        action="store_true",
        help="allow the fresh run to cover only a subset of the baseline's "
        "benchmarks (the CI smoke gate runs the two smallest)",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        metavar="NAME",
        help="restrict the comparison to these benchmark names (implies "
        "--subset); a name absent from either snapshot is a clear, "
        "non-zero-exit error",
    )
    args = parser.parse_args(argv)

    baseline = load_bench_snapshot(args.baseline)
    fresh = load_bench_snapshot(args.fresh)
    if args.benchmarks:
        # Fail loudly (not with a KeyError) when a requested name is in
        # neither snapshot — a typo'd gate must not pass vacuously.
        missing_base = sorted(
            set(args.benchmarks) - set(baseline.get("benchmarks", {}))
        )
        missing_fresh = sorted(
            set(args.benchmarks) - set(fresh.get("benchmarks", {}))
        )
        if missing_base or missing_fresh:
            print("regression check FAILED: requested benchmark(s) missing:")
            for name in missing_base:
                print(
                    f"  ! {name}: absent from baseline {args.baseline} "
                    f"(regenerate the baseline or fix the name)"
                )
            for name in missing_fresh:
                if name not in missing_base:
                    print(f"  ! {name}: absent from fresh {args.fresh}")
            return 1
        for snapshot in (baseline, fresh):
            snapshot["benchmarks"] = {
                name: entry
                for name, entry in snapshot["benchmarks"].items()
                if name in args.benchmarks
            }
        args.subset = True
    problems = compare_snapshots(
        baseline,
        fresh,
        tolerance=args.tolerance,
        min_seconds=args.min_seconds,
        subset=args.subset,
    )
    if problems:
        print(f"regression check FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  ! {problem}")
        return 1
    benchmarks = sorted(fresh.get("benchmarks", {}))
    print(
        f"regression check passed: {len(benchmarks)} benchmark(s) "
        f"[{', '.join(benchmarks)}] match the baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
