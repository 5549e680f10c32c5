"""CLI surface of the result cache.

``repro map --result-cache`` twice against one cache dir (the second
run must replay and stay byte-identical), the derived ``--no-result-
cache`` spelling, and the extended ``repro cache`` report/clear.
"""

from __future__ import annotations

from repro.cli import main


def _map(tmp_path, out_name, *extra):
    out = tmp_path / out_name
    code = main(
        [
            "map", "chu-ad-opt", "CMOS3",
            "--depth", "3",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(out),
            *extra,
        ]
    )
    assert code == 0
    return out.read_text()


class TestMapResultCacheFlag:
    def test_second_run_replays_byte_identical(self, tmp_path, capsys):
        cold = _map(tmp_path, "a.blif", "--result-cache")
        assert "result cache" not in capsys.readouterr().out
        warm = _map(tmp_path, "b.blif", "--result-cache")
        assert "(result cache: memory hit)" in capsys.readouterr().out
        assert warm == cold

    def test_no_result_cache_spelling_recomputes(self, tmp_path, capsys):
        _map(tmp_path, "a.blif", "--result-cache")
        capsys.readouterr()
        _map(tmp_path, "b.blif", "--no-result-cache")
        assert "result cache" not in capsys.readouterr().out

    def test_verify_verdict_is_replayed_from_the_cache(
        self, tmp_path, capsys
    ):
        _map(tmp_path, "a.blif", "--result-cache")
        capsys.readouterr()
        _map(tmp_path, "b.blif", "--result-cache", "--verify", "--metrics")
        out = capsys.readouterr().out
        assert "conformance.certificates = 1" in out
        # verify=False and verify=True map to different keys; the second
        # run recomputes and certifies, the third replays the stored
        # verdict without running the certifier again.
        _map(tmp_path, "c.blif", "--result-cache", "--verify", "--metrics")
        out = capsys.readouterr().out
        assert "(result cache: memory hit)" in out
        assert "verification: equivalent=True hazard_safe=True" in out
        assert "conformance.certificates" not in out


class TestCacheSubcommand:
    def test_reports_and_clears_both_caches(self, tmp_path, capsys):
        _map(tmp_path, "a.blif", "--result-cache")
        capsys.readouterr()
        root = str(tmp_path / "cache")
        assert main(["cache", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "annotation cache at" in out
        assert "result cache at" in out and "1 entrie(s)" in out
        assert main(["cache", "--cache-dir", root, "--clear"]) == 0
        out = capsys.readouterr().out
        # The annotation count depends on whether an earlier test left
        # the library warm in-process; the result entry is always ours.
        assert "cached annotation payload(s)" in out
        assert "cleared 1 cached map result(s)" in out
        assert main(["cache", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "result cache at" in out and "0 entrie(s), 0 bytes" in out
