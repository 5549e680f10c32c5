"""The repository benchmark: one command, every metric, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload map-async-actel --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``map-async-actel`` and ``certify-actel`` (closed loop,
in-process through ``repro.api``) and ``serve-mixed`` (open loop
against a ``repro serve`` subprocess).  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` a separate traced run
prints the per-layer metrics (see ``perfbench/README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import checkout_problem, ensure_hermetic, precompile
from metrics import END_TO_END, PER_LAYER, hook_of, unit

WORKLOADS = ("map-async-actel", "certify-actel", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    if workload == "serve-mixed":
        import serve

        return serve.run(seed, seconds, trace)
    import inproc

    return inproc.run(workload, seed, seconds, trace)


def result_line(workload: str, trace: bool, outcome: dict) -> dict:
    """The contract's JSON result; missing hooks drop their metrics."""
    names = PER_LAYER if trace else END_TO_END
    values = outcome["metrics"]
    if set(values) != set(names):
        raise RuntimeError(
            f"metric names differ from the declared set: "
            f"{sorted(set(values) ^ set(names))}")
    missing = set(outcome.get("missing", ()))
    metrics = {}
    for name in names:
        if trace and hook_of(name, workload) in missing:
            continue
        metrics[name] = {"value": values[name], "unit": unit(name)}
    return {"correct": bool(outcome["correct"]),
            "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    ensure_hermetic()
    # Unwind on SIGTERM so the daemon and probes are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    precompile()
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    result = result_line(args.workload, bool(args.trace), outcome)
    for line in outcome.get("report", ()):
        print(f"# {line}")
    for hook in outcome.get("missing", ()):
        print(f"# missing hook: {hook}")
        print(f"perfbench: missing hook: {hook}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
