"""Baseline diffing for ``BENCH_mapping.json`` snapshots.

``compare_snapshots`` is the policy behind
``benchmarks/check_regression.py``: *quality* fields (area, delay,
cell counts, cell usage, covering work, verification verdicts) must
match the baseline exactly — any drift means the mapper changed
behaviour and the baseline must be regenerated deliberately — while
*timing* fields may grow up to a relative tolerance before they count
as a regression.  A row that fell back to the trivial cover under a
deadline always fails: a degraded run never passes as a fast one.

Timing checks are built to be non-flaky in CI:

* a benchmark slower than ``tolerance`` (default +20%) only fails when
  it is also slower by more than ``min_seconds`` in absolute terms, so
  jitter on sub-50ms workloads never trips the gate;
* CI invokes the script with a loose ``--tolerance 2.0
  --min-seconds 1.0``, reserving the tight default for local runs on
  quiet machines.
"""

from __future__ import annotations

from typing import Iterator

#: Timing drift allowed before a slowdown is a regression (+20%).
DEFAULT_TOLERANCE = 0.20
#: Absolute slack under which timing drift is ignored entirely.
DEFAULT_MIN_SECONDS = 0.05

#: Per-benchmark fields that must match the baseline exactly.
QUALITY_FIELDS = (
    "area",
    "delay",
    "cells",
    "cell_usage",
    "cones",
    "matches",
    "filter_invocations",
    "verify",
)


def _timing_problem(
    label: str,
    baseline: float,
    fresh: float,
    tolerance: float,
    min_seconds: float,
) -> Iterator[str]:
    if fresh <= baseline * (1.0 + tolerance):
        return
    if fresh - baseline <= min_seconds:
        return
    percent = (
        f"+{(fresh / baseline - 1.0) * 100.0:.0f}%" if baseline > 0 else "new cost"
    )
    yield (
        f"{label}: {fresh:.3f}s vs baseline {baseline:.3f}s "
        f"({percent}, tolerance {tolerance * 100.0:.0f}% / {min_seconds:.2f}s)"
    )


def compare_snapshots(
    baseline: dict,
    fresh: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    subset: bool = False,
) -> list[str]:
    """Problems in ``fresh`` relative to ``baseline`` (empty = pass).

    With ``subset`` the fresh run may cover fewer benchmarks than the
    baseline — the CI smoke gate runs only the two smallest catalog
    entries against the committed full-catalog baseline.
    """
    problems: list[str] = []
    for field in ("schema", "library", "max_depth"):
        if baseline.get(field) != fresh.get(field):
            problems.append(
                f"{field}: {fresh.get(field)!r} vs baseline "
                f"{baseline.get(field)!r} — snapshots are not comparable"
            )
    if problems:
        return problems

    base_rows = baseline.get("benchmarks", {})
    fresh_rows = fresh.get("benchmarks", {})
    missing = sorted(set(base_rows) - set(fresh_rows))
    if missing and not subset:
        problems.append(f"benchmarks missing from fresh run: {', '.join(missing)}")
    extra = sorted(set(fresh_rows) - set(base_rows))
    if extra:
        problems.append(
            f"benchmarks absent from baseline: {', '.join(extra)} "
            "(regenerate the baseline)"
        )

    for name in sorted(fresh_rows):
        fallback = fresh_rows[name].get("fallback")
        if fallback:
            problems.append(
                f"{name}: deadline fallback ({fallback}); a degraded run "
                "is not comparable"
            )

    for name in sorted(set(base_rows) & set(fresh_rows)):
        base, new = base_rows[name], fresh_rows[name]
        for field in QUALITY_FIELDS:
            if base.get(field) != new.get(field):
                problems.append(
                    f"{name}.{field}: {new.get(field)!r} vs baseline "
                    f"{base.get(field)!r} (quality fields must match exactly)"
                )
        problems.extend(
            _timing_problem(
                f"{name}.map_seconds",
                base.get("map_seconds", 0.0),
                new.get("map_seconds", 0.0),
                tolerance,
                min_seconds,
            )
        )

    problems.extend(
        _timing_problem(
            "annotate_seconds",
            baseline.get("annotate_seconds", 0.0),
            fresh.get("annotate_seconds", 0.0),
            tolerance,
            min_seconds,
        )
    )
    return problems
