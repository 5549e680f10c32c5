"""CLI surface of the result cache.

``repro map --result-cache`` against one cache dir (later runs, and a
daemon on the same store, must replay and stay byte-identical), the
derived ``--no-result-cache`` spelling, and the extended ``repro
cache`` report/clear.
"""

from __future__ import annotations

from repro.api import MapRequest
from repro.cache import resultcache
from repro.cli import main
from repro.obs.export import parse_prometheus_text
from repro.service import MappingService, ServiceConfig
from repro.service.client import ServiceClient


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
        # A fresh process starts with an empty memory tier.
        resultcache.MEMORY.clear()
        assert _map(tmp_path, "c.blif", "--result-cache") == cold
        assert "(result cache: disk hit)" in capsys.readouterr().out

        # A daemon on the same store answers from disk and shows it.
        resultcache.MEMORY.clear()
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "cache"))
        with MappingService(config).running() as service:
            client = ServiceClient(service.url)
            response = client.map(
                MapRequest(
                    design="chu-ad-opt", library="CMOS3", max_depth=3,
                    result_cache=True,
                )
            )
            samples = parse_prometheus_text(client.metrics_prometheus())[
                "samples"
            ]
            health = client.health()
            client.close()
        assert response.cached == "disk" and response.blif == cold
        assert samples["cache_result_hits_total"] >= 1
        assert 'cache_result_lookup_seconds_bucket{le="+Inf"}' in samples
        assert health["result_cache"]["disk_entries"] == 1

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


class TestMapFileResultCache:
    def test_blif_file_hits_and_matches_its_inline_request(
        self, tmp_path, capsys
    ):
        from repro.api import execute_map
        from repro.api.facade import netlist_blif, request_netlist
        from repro.library import anncache

        text = netlist_blif(
            request_netlist(MapRequest(library="CMOS3", design="vanbek-opt"))
        )
        path = tmp_path / "design.blif"
        path.write_text(text)

        def run(out_name):
            out = tmp_path / out_name
            assert main([
                "map", str(path), "CMOS3", "--depth", "3", "--result-cache",
                "--cache-dir", str(tmp_path / "cache"), "--output", str(out),
            ]) == 0
            return out.read_text()

        cold = run("a.blif")
        assert "result cache" not in capsys.readouterr().out
        warm = run("b.blif")
        assert "(result cache: memory hit)" in capsys.readouterr().out
        plain = execute_map(
            MapRequest(library="CMOS3", network={"blif": text}, max_depth=3),
            cache_dir=anncache.DISABLED,
        )
        assert cold == warm == plain.blif


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
