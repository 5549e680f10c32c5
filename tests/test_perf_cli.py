"""End-to-end CLI coverage of the observability surface.

Drives ``repro map --trace/--metrics`` and ``repro batch
--bench-snapshot`` through ``repro.cli.main`` in-process, then runs
``benchmarks/check_regression.py`` (loaded from its file, exactly as CI
invokes it) against the freshly written snapshot — accepting it
unchanged, and rejecting it under an injected 2× slowdown or a deadline
fallback.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE = ["chu-ad-opt", "vanbek-opt"]


def load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def batch_snapshot(out, *designs, extra=()):
    return main(
        [
            "batch", *designs, "--backend", "serial", "--no-cache",
            "--bench-snapshot", str(out), *extra,
        ]
    )


@pytest.fixture()
def fresh_snapshot(tmp_path):
    out = tmp_path / "BENCH_mapping.json"
    assert batch_snapshot(out, *SMOKE) == 0
    return out


class TestMapTrace:
    def test_map_emits_valid_span_tree(self, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        code = main(
            [
                "map",
                "chu-ad-opt",
                "CMOS3",
                "--no-cache",
                "--trace",
                str(trace_path),
                "--metrics",
            ]
        )
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert payload["schema"] == "repro-trace/v1"
        (root,) = payload["spans"]
        assert root["name"] == "async_tmap"
        assert root["end"] is not None

        names = set()

        def walk(span):
            names.add(span["name"])
            assert span["end"] is not None, f"span {span['name']} left open"
            for child in span["children"]:
                assert child["parent_id"] == span["span_id"]
                walk(child)

        walk(root)
        # The acceptance contract: decompose/partition/match/cover all
        # appear in the tree (matching happens inside match_cover).
        assert {
            "decompose",
            "partition",
            "cover",
            "cone",
            "enumerate_clusters",
            "match_cover",
            "build_netlist",
        } <= names
        assert "metrics" in payload
        out = capsys.readouterr().out
        assert "trace written" in out and "metrics:" in out


class TestCheckRegressionScript:
    def test_accepts_snapshot_against_itself(self, fresh_snapshot, capsys):
        checker = load_check_regression()
        code = checker.main(
            [
                "--baseline",
                str(fresh_snapshot),
                "--fresh",
                str(fresh_snapshot),
            ]
        )
        assert code == 0
        assert "passed" in capsys.readouterr().out

    def test_rejects_injected_double_slowdown(
        self, fresh_snapshot, tmp_path, capsys
    ):
        snap = json.loads(fresh_snapshot.read_text())
        for row in snap["benchmarks"].values():
            row["map_seconds"] = row["map_seconds"] * 2 + 1.0
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(snap))
        checker = load_check_regression()
        code = checker.main(
            ["--baseline", str(fresh_snapshot), "--fresh", str(slow)]
        )
        assert code == 1
        assert "map_seconds" in capsys.readouterr().out

    def test_subset_mode_matches_committed_baseline_shape(
        self, fresh_snapshot, tmp_path
    ):
        # The committed baseline covers the full catalog; a smoke run
        # covers two benchmarks.  Subset mode bridges exactly that.
        snap = json.loads(fresh_snapshot.read_text())
        del snap["benchmarks"]["vanbek-opt"]
        subset = tmp_path / "subset.json"
        subset.write_text(json.dumps(snap))
        checker = load_check_regression()
        assert (
            checker.main(
                ["--baseline", str(fresh_snapshot), "--fresh", str(subset)]
            )
            == 1
        )
        assert (
            checker.main(
                [
                    "--baseline",
                    str(fresh_snapshot),
                    "--fresh",
                    str(subset),
                    "--subset",
                ]
            )
            == 0
        )

    def test_benchmarks_selector_restricts_comparison(
        self, fresh_snapshot, tmp_path, capsys
    ):
        # Break one benchmark's quality field; gating only on the other
        # must still pass, gating on the broken one must fail.
        snap = json.loads(fresh_snapshot.read_text())
        snap["benchmarks"]["vanbek-opt"]["area"] += 1
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(snap))
        checker = load_check_regression()
        base_args = ["--baseline", str(fresh_snapshot), "--fresh", str(fresh)]
        assert checker.main([*base_args, "--benchmarks", "chu-ad-opt"]) == 0
        capsys.readouterr()
        assert checker.main([*base_args, "--benchmarks", "vanbek-opt"]) == 1
        assert "area" in capsys.readouterr().out

    def test_benchmarks_selector_fails_clearly_on_missing_name(
        self, fresh_snapshot, capsys
    ):
        checker = load_check_regression()
        code = checker.main(
            [
                "--baseline",
                str(fresh_snapshot),
                "--fresh",
                str(fresh_snapshot),
                "--benchmarks",
                "chu-ad-opt",
                "not-a-benchmark",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "not-a-benchmark" in out
        assert "absent from baseline" in out
        assert "KeyError" not in out

    def test_rejects_a_deadline_fallback_row(self, tmp_path, capsys):
        # A degraded run must never pass as a fast one: the row that
        # fell back to the trivial cover fails the gate by name.
        out = tmp_path / "degraded.json"
        extra = ("--deadline", "0.5", "--inject", "hang@cover.cone#dme")
        assert batch_snapshot(out, "dme", extra=extra) == 0
        capsys.readouterr()
        checker = load_check_regression()
        code = checker.main(
            [
                "--baseline", str(REPO_ROOT / "BENCH_mapping.json"),
                "--fresh", str(out),
                "--subset", "--tolerance", "2.0", "--min-seconds", "1.0",
            ]
        )
        assert code == 1
        assert "dme: deadline fallback (trivial-cover)" in (
            capsys.readouterr().out
        )
