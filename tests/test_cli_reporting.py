"""Tests for the CLI and the table renderer."""

import pytest

from repro.cli import main
from repro.reporting import render_table


class TestRenderTable:
    def test_basic_shape(self):
        text = render_table(["A", "Bee"], [(1, 2.5), ("xy", 123.0)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("+")
        assert "| A " in lines[2]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # perfectly aligned

    def test_float_formatting(self):
        text = render_table(["x"], [(1234.5,), (12.34,), (1.234,)])
        assert "1234" in text and "12.3" in text and "1.23" in text


class TestCli:
    def test_bench_lists_catalog(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "dean-ctrl" in out and "scsi" in out

    def test_map_benchmark_with_verify(self, capsys):
        assert main(["map", "dme", "CMOS3", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "hazard_safe=True" in out
        assert "covering: " in out and "worker" not in out

    def test_map_sync_flag(self, capsys):
        assert main(["map", "chu-ad-opt", "CMOS3", "--sync"]) == 0
        assert "sync mapping" in capsys.readouterr().out

    def test_map_dont_cares(self, capsys):
        assert main(["map", "dme-fast", "ACTEL", "--dont-cares"]) == 0
        out = capsys.readouterr().out
        assert "waived" in out

    def test_map_equation_file(self, tmp_path, capsys):
        path = tmp_path / "design.eqn"
        path.write_text(".inputs s a b\nf = s*a + s'*b + a*b;\n")
        assert main(["map", str(path), "CMOS3", "--verify"]) == 0
        assert "hazard_safe=True" in capsys.readouterr().out

    def test_map_writes_blif(self, tmp_path, capsys):
        out_path = tmp_path / "mapped.blif"
        assert main(["map", "dme", "CMOS3", "--output", str(out_path)]) == 0
        text = out_path.read_text()
        assert ".model" in text and ".names" in text

    def test_audit_mini_path(self, capsys):
        assert main(["audit", "CMOS3"]) == 0
        out = capsys.readouterr().out
        assert "MUX21" in out

    def test_audit_prints_confirmed_witnesses(self, capsys):
        assert main(["audit", "CMOS3"]) == 0
        out = capsys.readouterr().out
        # Each hazardous cell carries a replayed, oracle-cross-checked
        # witness transition.
        assert "witness [static-1]" in out
        assert "eventsim glitched, oracle hazard (confirmed)" in out
        assert "MISMATCH" not in out

    def test_map_explain_writes_valid_payload(self, tmp_path, capsys):
        from repro.obs.explain import validate_explain_payload
        from repro.obs.export import load_explain

        path = tmp_path / "design.eqn"
        path.write_text(".inputs s a b\nf = s*a + s'*b + a*b;\n")
        out_path = tmp_path / "explain.json"
        assert (
            main(["map", str(path), "CMOS3", "--explain", str(out_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "explain:" in out and str(out_path) in out
        payload = load_explain(out_path)
        summary = validate_explain_payload(payload)
        assert summary["rejected_hazard"] >= 1

    def test_map_explain_default_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["map", "dme", "CMOS3", "--explain", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "dme_explain.json" in out
        assert (tmp_path / "dme_explain.json").exists()

    def test_explain_subcommand_renders_log(self, tmp_path, capsys):
        path = tmp_path / "design.eqn"
        path.write_text(".inputs s a b\nf = s*a + s'*b + a*b;\n")
        out_path = tmp_path / "explain.json"
        assert (
            main(["map", str(path), "CMOS3", "--explain", str(out_path)]) == 0
        )
        capsys.readouterr()
        assert main(["explain", str(out_path), "--rejected-only"]) == 0
        out = capsys.readouterr().out
        assert "MUX21" in out
        assert "rejected-hazard" in out
        assert "cell witness:" in out

    def test_explain_subcommand_on_the_fly(self, capsys):
        assert main(["explain", "dme", "--library", "CMOS3"]) == 0
        out = capsys.readouterr().out
        assert "dme onto CMOS3" in out
        assert "candidates over" in out

    def test_explain_on_the_fly_equals_map_then_explain(self, tmp_path, capsys):
        # One rendering path: a catalog name maps with the explain layer
        # on and renders the log exactly as a written file would.
        log = str(tmp_path / "dme_explain.json")
        assert main(["map", "dme", "ACTEL", "--no-cache", "--explain", log]) == 0
        capsys.readouterr()
        assert main(["explain", log]) == 0
        from_file = capsys.readouterr().out
        assert main(["explain", "dme", "--library", "ACTEL"]) == 0
        assert capsys.readouterr().out == from_file
        assert "dme onto ACTEL" in from_file

    def test_explain_subcommand_bad_source(self, capsys):
        assert main(["explain", "no-such-thing"]) == 2
        assert "not an explain JSON" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "dme", "CMOS3", "--workers", "4"],
            ["perf", "--workers", "2"],
            ["obs", "top", "trace.json", "--by-worker"],
        ],
    )
    def test_removed_covering_worker_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        # The whole ``perf`` command is gone, not just its flag.
        expected = (
            "invalid choice: 'perf'" if argv[0] == "perf"
            else "unrecognized arguments"
        )
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "dme", "CMOS3", "--server", "http://127.0.0.1:1"],
            ["batch", "dme", "--server", "http://127.0.0.1:1"],
        ],
    )
    def test_removed_server_flags_are_rejected(self, argv, capsys):
        # The CLI maps locally; a daemon is driven with ServiceClient.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "dme", "CMOS3", "--log", "events.jsonl"],
            ["batch", "dme", "--log", "events.jsonl"],
            ["serve", "--log", "events.jsonl"],
        ],
    )
    def test_removed_log_flag_is_rejected(self, argv, capsys):
        # Traces and metrics are the observability surface; there is no
        # separate event log.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--backend", "serial"],
            ["serve", "--backend", "processes"],
            ["batch", "dme", "--backend", "threads"],
        ],
    )
    def test_removed_backend_values_are_rejected(self, argv, capsys):
        # The daemon executes requests on its connection threads; a batch
        # runs its jobs inline or on a process pool.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_parses_the_benchmark_daemon_command_line(self, tmp_path):
        # perfbench/serve.py launches the serve-mixed daemon with exactly
        # this command line.  It is why the one-value ``--backend`` flag
        # stays: deleting the flag would break that benchmark until its
        # command line drops it.
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--port", "0", "--backend", "threads", "--workers", "2",
            "--preload", "ACTEL", "CMOS3", "--cache-dir", str(tmp_path),
        ])
        assert (args.command, args.port, args.workers) == ("serve", 0, 2)
        assert args.preload == ["ACTEL", "CMOS3"]
        assert args.cache_dir == str(tmp_path)

    def test_map_cache_dir_cold_then_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "ann")
        # Fresh (uncached) library instances so annotation really runs.
        from repro.library.standard import cmos3

        cmos3.cache_clear()
        assert main(["map", "dme", "CMOS3", "--cache-dir", cache_dir]) == 0
        cold_out = capsys.readouterr().out
        assert "annotation: cold" in cold_out

        cmos3.cache_clear()
        assert main(["map", "dme", "CMOS3", "--cache-dir", cache_dir]) == 0
        warm_out = capsys.readouterr().out
        assert "annotation: disk" in warm_out
        assert "cold pass was" in warm_out
        cmos3.cache_clear()

    def test_no_cache_overrides_env_toggle(self, tmp_path, monkeypatch, capsys):
        # --no-cache must stay hermetic even with the env toggle set.
        from repro.library.standard import cmos3

        monkeypatch.setenv("REPRO_ANNOTATION_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cmos3.cache_clear()
        assert main(["map", "dme", "CMOS3", "--no-cache"]) == 0
        assert "annotation: cold" in capsys.readouterr().out
        assert not (tmp_path / "annotations").exists()
        cmos3.cache_clear()

    def test_cache_subcommand_lists_and_clears(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "ann")
        from repro.library.standard import cmos3

        cmos3.cache_clear()
        assert main(["map", "dme", "CMOS3", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "1 entrie(s)" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache_dir, "--clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "0 entrie(s)" in capsys.readouterr().out
        cmos3.cache_clear()
