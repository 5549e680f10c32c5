"""Trace-file inspection behind the ``repro obs`` subcommand.

Pure functions over loaded ``repro-trace/v1`` payloads (no Tracer
objects needed), so a trace written yesterday by a batch run — or
shipped back from the daemon — can be rendered, ranked, and diffed
offline:

* :func:`render_tree`    — the span forest as an indented tree with
  durations and identifying attributes;
* :func:`top_spans`      — hottest span groups by self-time (duration
  minus child time);
* :func:`critical_path`  — the longest root-to-leaf chain (greedy
  maximum-duration descent, the span-tree analogue of a schedule's
  critical path);
* :func:`diff_traces`    — span-by-span comparison of two traces by
  (name, key) path: per-group duration deltas plus added/removed
  groups.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Optional, Union

TRACE_SCHEMA = "repro-trace/v1"


def load_trace(path: Union[str, Path]) -> dict:
    """Load and schema-check a ``repro-trace/v1`` file."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: schema {payload.get('schema')!r} is not "
            f"{TRACE_SCHEMA!r}"
        )
    return payload


def iter_spans(
    payload: dict, depth: int = 0, path: tuple = ()
) -> Iterator[tuple[dict, int, tuple]]:
    """Yield ``(span, depth, path)`` pre-order over the whole forest.

    ``path`` is the (name, key) chain from the root — the stable
    identity :func:`diff_traces` matches on (timings and span ids
    differ between runs; the work's shape does not).
    """
    for span in payload.get("spans", ()):
        yield from _walk(span, depth, path)


def _walk(span: dict, depth: int, path: tuple):
    here = path + (_identity(span),)
    yield span, depth, here
    for child in span.get("children", ()):
        yield from _walk(child, depth + 1, here)


def _identity(span: dict) -> tuple:
    attrs = span.get("attrs") or {}
    key = attrs.get("key")
    if key is None:
        key = attrs.get("job")
    return (span.get("name"), key)


def _duration(span: dict) -> float:
    duration = span.get("duration")
    if duration is None and span.get("end") is not None:
        duration = span["end"] - span["start"]
    return float(duration or 0.0)


def self_time(span: dict) -> float:
    """Duration minus time covered by children (floored at zero).

    Child intervals can overlap (concurrent ``batch_job`` spans of a
    parallel batch), so the sum of child durations may exceed the
    parent's — the floor keeps the attribution conservative rather than
    negative.
    """
    children = sum(_duration(child) for child in span.get("children", ()))
    return max(0.0, _duration(span) - children)


# ----------------------------------------------------------------------
# tree
# ----------------------------------------------------------------------

#: Attributes worth showing inline in the tree view, in print order.
_TREE_ATTRS = ("key", "job", "design", "library", "endpoint", "status",
               "attempt", "cones", "jobs", "backend")


def render_tree(
    payload: dict, max_depth: Optional[int] = None
) -> list[str]:
    """The span forest as indented ``duration name [attrs]`` lines."""
    lines: list[str] = []
    trace_id = payload.get("trace_id")
    if trace_id:
        lines.append(f"trace {trace_id}")
    for span, depth, _ in iter_spans(payload):
        if max_depth is not None and depth > max_depth:
            continue
        attrs = span.get("attrs") or {}
        shown = [
            f"{name}={attrs[name]}" for name in _TREE_ATTRS if name in attrs
        ]
        suffix = f"  [{', '.join(shown)}]" if shown else ""
        lines.append(
            f"{'  ' * depth}{_duration(span) * 1000:9.2f}ms  "
            f"{span.get('name')}{suffix}"
        )
    return lines


# ----------------------------------------------------------------------
# top
# ----------------------------------------------------------------------


def top_spans(payload: dict, limit: int = 10) -> list[dict]:
    """Hottest span groups by total self-time, descending.

    Groups by span name and reports count, total/self seconds, and the
    single longest span.
    """
    groups: dict[str, dict] = {}
    for span, _, _ in iter_spans(payload):
        name = span.get("name")
        row = groups.setdefault(
            name,
            {
                "name": name,
                "count": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "max_seconds": 0.0,
            },
        )
        row["count"] += 1
        row["total_seconds"] += _duration(span)
        row["self_seconds"] += self_time(span)
        row["max_seconds"] = max(row["max_seconds"], _duration(span))
    rows = sorted(
        groups.values(), key=lambda r: r["self_seconds"], reverse=True
    )
    return rows[:limit]


def render_top(rows: list[dict]) -> list[str]:
    lines = [f"{'self(s)':>10} {'total(s)':>10} {'count':>6} "
             f"{'max(s)':>10}  span"]
    for row in rows:
        lines.append(
            f"{row['self_seconds']:10.4f} {row['total_seconds']:10.4f} "
            f"{row['count']:6d} {row['max_seconds']:10.4f}  {row['name']}"
        )
    return lines


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------


def critical_path(payload: dict) -> list[dict]:
    """Greedy longest-duration descent from the longest root.

    Each step keeps the child with the largest duration — the chain a
    latency fix has to shorten before anything else matters.
    """
    roots = list(payload.get("spans", ()))
    if not roots:
        return []
    path = []
    node = max(roots, key=_duration)
    while node is not None:
        path.append(node)
        children = node.get("children") or []
        node = max(children, key=_duration) if children else None
    return path


def render_critical(path: list[dict]) -> list[str]:
    lines = []
    total = _duration(path[0]) if path else 0.0
    for depth, span in enumerate(path):
        duration = _duration(span)
        share = (duration / total * 100.0) if total else 0.0
        attrs = span.get("attrs") or {}
        key = attrs.get("key") or attrs.get("job")
        suffix = f"  [{key}]" if key is not None else ""
        lines.append(
            f"{'  ' * depth}{duration * 1000:9.2f}ms {share:5.1f}%  "
            f"{span.get('name')}{suffix}"
        )
    return lines


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------


def _grouped(payload: dict) -> dict[tuple, dict]:
    groups: dict[tuple, dict] = {}
    for span, _, path in iter_spans(payload):
        row = groups.setdefault(path, {"count": 0, "seconds": 0.0})
        row["count"] += 1
        row["seconds"] += _duration(span)
    return groups


def diff_traces(before: dict, after: dict) -> dict:
    """Span-by-span comparison keyed on the (name, key) path.

    Returns ``changed`` (per-path duration delta, sorted by absolute
    delta descending), ``added``, and ``removed`` path groups.
    """
    a, b = _grouped(before), _grouped(after)
    changed = []
    for path in sorted(set(a) & set(b)):
        delta = b[path]["seconds"] - a[path]["seconds"]
        changed.append(
            {
                "path": path,
                "before_seconds": a[path]["seconds"],
                "after_seconds": b[path]["seconds"],
                "delta_seconds": delta,
                "before_count": a[path]["count"],
                "after_count": b[path]["count"],
            }
        )
    changed.sort(key=lambda row: abs(row["delta_seconds"]), reverse=True)
    return {
        "changed": changed,
        "added": sorted(set(b) - set(a)),
        "removed": sorted(set(a) - set(b)),
    }


def _path_label(path: tuple) -> str:
    parts = []
    for name, key in path:
        parts.append(f"{name}[{key}]" if key is not None else str(name))
    return " > ".join(parts)


def render_diff(diff: dict, limit: int = 20) -> list[str]:
    lines = [f"{'delta(s)':>10} {'before':>10} {'after':>10}  span path"]
    for row in diff["changed"][:limit]:
        lines.append(
            f"{row['delta_seconds']:+10.4f} {row['before_seconds']:10.4f} "
            f"{row['after_seconds']:10.4f}  {_path_label(row['path'])}"
        )
    for path in diff["added"][:limit]:
        lines.append(f"{'added':>10} {'-':>10} {'-':>10}  {_path_label(path)}")
    for path in diff["removed"][:limit]:
        lines.append(
            f"{'removed':>10} {'-':>10} {'-':>10}  {_path_label(path)}"
        )
    return lines


__all__ = [
    "critical_path",
    "diff_traces",
    "iter_spans",
    "load_trace",
    "render_critical",
    "render_diff",
    "render_top",
    "render_tree",
    "self_time",
    "top_spans",
]
