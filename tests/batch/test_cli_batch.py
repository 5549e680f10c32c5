"""End-to-end coverage of the ``repro batch`` command line.

Drives :func:`repro.cli.main` in-process through the happy path, resume,
``--check`` verification, fault injection, snapshot/trace export,
and every documented non-zero exit code.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.export import BENCH_SCHEMA, TRACE_SCHEMA

from tests.batch.util import DEPTH, SMALL


def batch(tmp_path, ann_cache, *extra, designs=SMALL):
    return main(
        [
            "batch", *designs,
            "--backend", "serial",
            "--depth", str(DEPTH),
            "--output-dir", str(tmp_path / "out"),
            "--cache-dir", ann_cache,
            "--backoff", "0.01",
            *extra,
        ]
    )


class TestHappyPath:
    def test_run_then_check_passes(self, tmp_path, ann_cache, capsys):
        assert batch(tmp_path, ann_cache) == 0
        out = capsys.readouterr().out
        assert "batch: 2 job(s)" in out
        assert "ok=2" in out
        outdir = tmp_path / "out"
        assert (outdir / "batch_journal.jsonl").exists()
        for design in SMALL:
            assert (outdir / f"{design}__CMOS3.blif").exists()

        assert batch(tmp_path, ann_cache, "--check") == 0
        assert "batch check passed" in capsys.readouterr().out

    def test_resume_skips_journalled_jobs(self, tmp_path, ann_cache, capsys):
        assert batch(tmp_path, ann_cache) == 0
        capsys.readouterr()
        assert batch(tmp_path, ann_cache, "--resume") == 0
        out = capsys.readouterr().out
        assert out.count("resumed from journal") == 2
        assert "skipped=2" in out

    def test_resumed_snapshot_rows_equal_the_first_run(
        self, tmp_path, ann_cache, capsys
    ):
        first = tmp_path / "first.json"
        resumed = tmp_path / "resumed.json"
        assert batch(
            tmp_path, ann_cache, "--verify", "--bench-snapshot", str(first)
        ) == 0
        assert batch(
            tmp_path, ann_cache, "--verify", "--resume",
            "--bench-snapshot", str(resumed),
        ) == 0
        assert "skipped=2" in capsys.readouterr().out
        rows = json.loads(resumed.read_text())["benchmarks"]
        assert rows == json.loads(first.read_text())["benchmarks"]
        for row in rows.values():
            assert row["verify"]["ok"] is True and row["cell_usage"]

    def test_bench_snapshot_and_trace_export(self, tmp_path, ann_cache, capsys):
        snapshot = tmp_path / "snap.json"
        trace = tmp_path / "trace.json"
        code = batch(
            tmp_path, ann_cache,
            "--backend", "processes", "--workers", "2",
            "--verify",
            "--bench-snapshot", str(snapshot),
            "--trace", str(trace),
            "--metrics",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "batch.jobs_ok" in out

        snap = json.loads(snapshot.read_text())
        assert snap["schema"] == BENCH_SCHEMA
        assert snap["library"] == "CMOS3"
        assert snap["batch_backend"] == "processes"
        assert set(snap["benchmarks"]) == set(SMALL)
        for row in snap["benchmarks"].values():
            assert row["map_seconds"] >= 0 and row["fallback"] is None
            assert row["area"] > 0 and row["cells"] > 0
            assert 0 <= row["filter_invocations"] <= row["matches"]
            assert row["verify"] == {
                "equivalent": True, "hazard_safe": True, "ok": True
            }

        # One stitched tree: every pool worker's mapping spans hang
        # under its job's batch_job span.
        payload = json.loads(trace.read_text())
        assert payload["schema"] == TRACE_SCHEMA
        (root,) = payload["spans"]
        assert root["name"] == "batch"
        jobs = [c for c in root["children"] if c["name"] == "batch_job"]
        assert len(jobs) == len(SMALL)
        for job in jobs:
            assert "async_tmap" in {c["name"] for c in job["children"]}

    def test_process_workers_ship_their_counters(
        self, tmp_path, ann_cache, capsys
    ):
        """A process-pool worker's ``cover.*`` and ``conformance.*``
        counters reach the run's metrics, as an inline job's do."""
        printed = {}
        for backend in ("serial", "processes"):
            code = batch(
                tmp_path / backend, ann_cache,
                "--backend", backend, "--workers", "2",
                "--libraries", "CMOS3", "--verify", "--metrics",
                designs=(SMALL[0],),
            )
            assert code == 0
            out = capsys.readouterr().out
            lines = out.split("metrics:\n", 1)[1].splitlines()
            printed[backend] = dict(
                line.strip().split(" = ", 1) for line in lines if " = " in line
            )
        for name in ("cover.clusters", "conformance.certificates"):
            assert printed["processes"][name] == printed["serial"][name]
        assert printed["processes"]["conformance.certificates"] == "1"
        assert int(printed["processes"]["cover.clusters"]) > 0

    def test_sync_mode_maps_the_burst_mode_flow(self, tmp_path, ann_cache):
        assert batch(
            tmp_path, ann_cache, "--sync", designs=(SMALL[0],)
        ) == 0
        assert (tmp_path / "out" / f"{SMALL[0]}__CMOS3_sync.blif").exists()


class TestFaultsAndFailures:
    def test_injected_transient_fault_retries_to_success(
        self, tmp_path, ann_cache, capsys
    ):
        for backend in ("serial", "processes"):
            workdir = tmp_path / backend
            code = batch(
                workdir, ann_cache,
                "--backend", backend, "--workers", "2",
                "--retries", "2",
                "--inject", f"raise@cover.cone#{SMALL[0]}",
            )
            assert code == 0, backend
            assert "(2 attempts)" in capsys.readouterr().out, backend
            # The retried run leaves a journal whose artifacts verify.
            assert batch(workdir, ann_cache, "--check") == 0, backend
            assert "batch check passed" in capsys.readouterr().out

    def test_persistent_fault_exits_nonzero(self, tmp_path, ann_cache, capsys):
        code = batch(
            tmp_path, ann_cache,
            "--retries", "1",
            "--inject", f"raise@cover.cone#{SMALL[0]}*9",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert f"FAILED {SMALL[0]}@CMOS3" in captured.err
        # The journal still verifies the job that did succeed and
        # reports the failed one.
        code = batch(tmp_path, ann_cache, "--check")
        assert code == 1
        assert "status failed" in capsys.readouterr().out

    def test_deadline_fallback_is_reported(self, tmp_path, ann_cache, capsys):
        code = batch(
            tmp_path, ann_cache,
            "--deadline", "0.5",
            "--inject", f"hang@cover.cone#{SMALL[0]}",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deadline fallback: trivial-cover" in out
        assert "fallback=1" in out

    def test_tampered_artifact_fails_check(self, tmp_path, ann_cache, capsys):
        assert batch(tmp_path, ann_cache) == 0
        artifact = tmp_path / "out" / f"{SMALL[0]}__CMOS3.blif"
        artifact.write_text(artifact.read_text() + "# tampered\n")
        capsys.readouterr()
        assert batch(tmp_path, ann_cache, "--check") == 1
        out = capsys.readouterr().out
        assert "batch check FAILED" in out and "does not hash" in out


class TestBadUsage:
    def test_unknown_design_exits_2(self, tmp_path, ann_cache, capsys):
        assert batch(tmp_path, ann_cache, designs=("no-such-design",)) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--depth", "0", "max_depth must be >= 1"),
            ("--deadline", "0", "deadline_seconds must be positive"),
            ("--deadline", "-1", "deadline_seconds must be positive"),
        ],
    )
    def test_bad_job_option_exits_2(
        self, tmp_path, ann_cache, capsys, flag, value, message
    ):
        assert batch(tmp_path, ann_cache, flag, value) == 2
        assert f"bad request: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_inject_spec_exits_2(self, tmp_path, ann_cache, capsys):
        assert batch(tmp_path, ann_cache, "--inject", "nonsense") == 2
        assert "bad --inject spec" in capsys.readouterr().err

    def test_check_without_journal_exits_2(self, ann_cache, capsys):
        code = main(["batch", *SMALL, "--check", "--cache-dir", ann_cache])
        assert code == 2
        assert "--check needs" in capsys.readouterr().err

    def test_check_missing_journal_file_exits_1(
        self, tmp_path, ann_cache, capsys
    ):
        code = batch(tmp_path, ann_cache, "--check")
        assert code == 1
        assert "journal check FAILED" in capsys.readouterr().err
