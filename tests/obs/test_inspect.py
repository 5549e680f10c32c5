"""Trace inspection (``repro.obs.inspect``) and the ``repro obs`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.inspect import (
    critical_path,
    diff_traces,
    iter_spans,
    load_trace,
    render_critical,
    render_diff,
    render_tree,
    self_time,
    top_spans,
)


def _span(name, start, end, attrs=None, children=(), span_id=1, parent=None):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent,
        "start": start,
        "end": end,
        "duration": end - start,
        "attrs": attrs or {},
        "children": list(children),
    }


def _trace(*roots, trace_id="t1"):
    return {"schema": "repro-trace/v1", "trace_id": trace_id,
            "spans": list(roots)}


@pytest.fixture
def payload():
    cone_a = _span("cone", 0.1, 0.5, {"key": "x"}, span_id=3, parent=2)
    cone_b = _span("cone", 0.5, 2.0, {"key": "y"}, span_id=4, parent=2)
    cover = _span("cover", 0.0, 2.5, children=[cone_a, cone_b], span_id=2,
                  parent=1)
    return _trace(_span("tmap", 0.0, 3.0, {"design": "d"}, [cover]))


def test_iter_spans_walks_preorder_with_paths(payload):
    walked = list(iter_spans(payload))
    assert [s["name"] for s, _, _ in walked] == ["tmap", "cover", "cone",
                                                 "cone"]
    assert [d for _, d, _ in walked] == [0, 1, 2, 2]
    _, _, path = walked[2]
    assert path == (("tmap", None), ("cover", None), ("cone", "x"))


def test_self_time_subtracts_children(payload):
    cover = payload["spans"][0]["children"][0]
    assert self_time(cover) == pytest.approx(2.5 - (0.4 + 1.5))
    # Overlapping/oversubscribed children floor at zero, never negative.
    tight = _span("p", 0.0, 1.0, children=[_span("c", 0.0, 0.8),
                                           _span("c", 0.1, 0.9)])
    assert self_time(tight) == 0.0


def test_render_tree_shows_trace_id_attrs_and_depth_clip(payload):
    lines = render_tree(payload)
    assert lines[0] == "trace t1"
    assert "tmap" in lines[1] and "design=d" in lines[1]
    assert any("cone" in line and "key=x" in line for line in lines)
    clipped = render_tree(payload, max_depth=1)
    assert sum("cone" in line for line in clipped) == 0


def test_top_spans_orders_by_self_time_and_splits_by_worker(payload):
    rows = top_spans(payload)
    assert rows[0]["name"] == "cone"  # 1.9s self across both cones
    assert rows[0]["count"] == 2
    assert rows[0]["max_seconds"] == pytest.approx(1.5)
    # Self times: cone 0.4 + 1.5, cover 2.5 - 1.9, tmap 3.0 - 2.5.
    assert [r["name"] for r in rows] == ["cone", "cover", "tmap"]
    assert [r["self_seconds"] for r in rows] == pytest.approx([1.9, 0.6, 0.5])
    assert [r["name"] for r in top_spans(payload, limit=1)] == ["cone"]


def test_critical_path_descends_along_longest_child(payload):
    chain = critical_path(payload)
    assert [s["name"] for s in chain] == ["tmap", "cover", "cone"]
    assert chain[-1]["attrs"]["key"] == "y"
    rendered = render_critical(chain)
    assert len(rendered) == 3
    assert "100.0%" in rendered[0]


def test_diff_traces_reports_changed_added_removed():
    before = _trace(_span("tmap", 0.0, 2.0,
                          children=[_span("cover", 0.0, 1.0)]))
    after = _trace(_span("tmap", 0.0, 4.0,
                         children=[_span("verify", 0.0, 0.5)]),
                   trace_id="t2")
    diff = diff_traces(before, after)
    changed = {tuple(row["path"]): row for row in diff["changed"]}
    assert changed[(("tmap", None),)]["delta_seconds"] == pytest.approx(2.0)
    assert diff["added"] == [(("tmap", None), ("verify", None))]
    assert diff["removed"] == [(("tmap", None), ("cover", None))]
    assert render_diff(diff)  # renders without blowing up


def test_load_trace_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "repro-metrics/v1"}))
    with pytest.raises(ValueError, match="repro-trace/v1"):
        load_trace(path)


# ----------------------------------------------------------------------
# CLI: repro obs <view>
# ----------------------------------------------------------------------


@pytest.fixture
def trace_file(tmp_path, payload):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_obs_tree(trace_file, capsys):
    assert main(["obs", "tree", trace_file]) == 0
    out = capsys.readouterr().out
    assert "trace t1" in out and "tmap" in out and "cone" in out


def test_cli_obs_top(trace_file, capsys):
    assert main(["obs", "top", trace_file, "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "cone" in out and "tmap" in out


def test_cli_obs_critical(trace_file, capsys):
    assert main(["obs", "critical", trace_file]) == 0
    assert "tmap" in capsys.readouterr().out


def test_cli_obs_diff(trace_file, tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps(_trace(_span("tmap", 0.0, 5.0))))
    assert main(["obs", "diff", trace_file, str(other)]) == 0
    assert "tmap" in capsys.readouterr().out


def test_cli_obs_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["obs", "tree", str(path)]) == 1
    assert "cannot inspect trace" in capsys.readouterr().err
