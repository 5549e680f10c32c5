"""Snapshot export contracts and the regression-gate policy."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs.export import (
    BENCH_SCHEMA,
    bench_row,
    load_bench_snapshot,
    write_bench_snapshot,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.regression import compare_snapshots
from repro.obs.tracer import Tracer


def snapshot(**overrides) -> dict:
    base = {
        "schema": BENCH_SCHEMA,
        "library": "CMOS3",
        "max_depth": 5,
        "annotate_seconds": 0.10,
        "annotate_source": "cold",
        "benchmarks": {
            "chu-ad-opt": {
                "map_seconds": 0.10,
                "area": 13.0,
                "delay": 0.45,
                "cells": 6,
                "cell_usage": {"AND3": 1, "AO21": 2},
                "cones": 4,
                "matches": 14,
                "filter_invocations": 0,
                "verify": {"equivalent": True, "hazard_safe": True, "ok": True},
            },
            "vanbek-opt": {
                "map_seconds": 0.05,
                "area": 14.0,
                "delay": 0.50,
                "cells": 6,
                "cell_usage": {"OR2": 3},
                "cones": 6,
                "matches": 16,
                "filter_invocations": 0,
                "verify": {"equivalent": True, "hazard_safe": True, "ok": True},
            },
        },
    }
    base.update(overrides)
    return base


class TestExport:
    def test_bench_snapshot_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_mapping.json"
        write_bench_snapshot(path, snapshot())
        assert load_bench_snapshot(path) == snapshot()

    def test_bench_row_excludes_annotation_and_carries_fallback(self):
        # ``map_seconds`` never includes the cold annotation a job paid,
        # so the row carries it as is; the snapshot reports the
        # annotation once, at its own level.
        record = {"map_seconds": 0.0023, "annotate_seconds": 0.16,
                  "area": 13.0, "fallback": "trivial-cover"}
        row = bench_row(record)
        assert row["map_seconds"] == 0.0023
        assert "annotate_seconds" not in row
        assert row["fallback"] == "trivial-cover"
        assert "verify" not in row

    def test_write_rejects_wrong_schema(self, tmp_path):
        with pytest.raises(ValueError, match="schema"):
            write_bench_snapshot(tmp_path / "x.json", {"schema": "bogus/v9"})

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "bogus/v9"}))
        with pytest.raises(ValueError, match="bogus/v9"):
            load_bench_snapshot(path)

    def test_write_trace_embeds_metrics(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run"):
            pass
        registry = MetricsRegistry()
        registry.counter("n").inc(3)
        path = write_trace(tmp_path / "trace.json", tracer, metrics=registry)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-trace/v1"
        assert payload["spans"][0]["name"] == "run"
        assert payload["metrics"]["n"]["value"] == 3


class TestComparePolicy:
    def test_identical_snapshots_pass(self):
        assert compare_snapshots(snapshot(), snapshot()) == []

    def test_double_slowdown_fails(self):
        fresh = snapshot()
        fresh["benchmarks"]["chu-ad-opt"]["map_seconds"] = 0.10 * 2 + 1.0
        problems = compare_snapshots(snapshot(), fresh)
        assert len(problems) == 1
        assert "chu-ad-opt.map_seconds" in problems[0]

    def test_small_absolute_drift_is_ignored(self):
        fresh = snapshot()
        # +100% relative but only +40ms absolute: under the floor.
        fresh["benchmarks"]["vanbek-opt"]["map_seconds"] = 0.09
        assert compare_snapshots(snapshot(), fresh, min_seconds=0.05) == []

    def test_speedup_never_fails(self):
        fresh = snapshot()
        for row in fresh["benchmarks"].values():
            row["map_seconds"] = 0.0
        assert compare_snapshots(snapshot(), fresh) == []

    @pytest.mark.parametrize(
        "field,value",
        [
            ("area", 99.0),
            ("cells", 7),
            ("cell_usage", {"NAND2": 9}),
            ("cones", 5),
            ("matches", 1),
            ("verify", {"equivalent": True, "hazard_safe": False, "ok": False}),
        ],
    )
    def test_any_quality_change_fails(self, field, value):
        fresh = snapshot()
        fresh["benchmarks"]["chu-ad-opt"][field] = value
        problems = compare_snapshots(snapshot(), fresh)
        assert any(f"chu-ad-opt.{field}" in p for p in problems)

    def test_missing_benchmark_fails_unless_subset(self):
        fresh = snapshot()
        del fresh["benchmarks"]["vanbek-opt"]
        assert any(
            "missing" in p for p in compare_snapshots(snapshot(), fresh)
        )
        assert compare_snapshots(snapshot(), fresh, subset=True) == []

    def test_extra_benchmark_fails_even_as_subset(self):
        fresh = snapshot()
        fresh["benchmarks"]["new-bench"] = copy.deepcopy(
            fresh["benchmarks"]["chu-ad-opt"]
        )
        problems = compare_snapshots(snapshot(), fresh, subset=True)
        assert any("absent from baseline" in p for p in problems)

    def test_config_mismatch_is_not_comparable(self):
        fresh = snapshot(max_depth=4)
        problems = compare_snapshots(snapshot(), fresh)
        assert any("max_depth" in p and "not comparable" in p
                   for p in problems)

    def test_annotate_slowdown_fails(self):
        fresh = snapshot(annotate_seconds=5.0)
        problems = compare_snapshots(snapshot(), fresh)
        assert any("annotate_seconds" in p for p in problems)

    def test_loose_ci_tolerance_absorbs_machine_jitter(self):
        fresh = snapshot()
        fresh["benchmarks"]["chu-ad-opt"]["map_seconds"] = 0.25  # +150%
        assert (
            compare_snapshots(
                snapshot(), fresh, tolerance=2.0, min_seconds=1.0
            )
            == []
        )
