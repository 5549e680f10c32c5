"""End-to-end coverage of ``repro certify`` and of ``--verify``, which
attaches the same certifier's verdict to ``repro map`` and ``repro batch``.

Includes the acceptance gate for the conformance subsystem: the full
Table-5 catalog mapped onto CMOS3 must re-certify with zero rejections.
"""

from __future__ import annotations

import json

import pytest

from repro.burstmode.benchmarks import TABLE5_ORDER
from repro.cli import main
from repro.obs.export import load_certificate


@pytest.fixture(scope="module")
def ann_cache(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("anncache"))


def certify(*args, ann_cache=None):
    extra = ["--cache-dir", ann_cache] if ann_cache else ["--no-cache"]
    return main(["certify", *args, *extra])


class TestCertifyCommand:
    def test_full_catalog_certifies_with_zero_rejections(
        self, ann_cache, capsys
    ):
        assert certify(ann_cache=ann_cache) == 0
        out = capsys.readouterr().out
        assert f"all {len(TABLE5_ORDER)} design(s) certified" in out
        assert out.count("CERTIFIED") == len(TABLE5_ORDER)
        assert "REJECTED" not in out

    def test_json_certificate_is_loadable(self, tmp_path, ann_cache, capsys):
        path = tmp_path / "cert.json"
        code = certify(
            "chu-ad-opt", "--json", str(path), ann_cache=ann_cache
        )
        assert code == 0
        certificate = load_certificate(path)
        assert certificate["verdict"] == "certified"
        assert certificate["design"] == "chu-ad-opt"

    def test_multi_design_json_envelope(self, tmp_path, ann_cache):
        path = tmp_path / "certs.json"
        code = certify(
            "chu-ad-opt", "vanbek-opt", "--json", str(path),
            ann_cache=ann_cache,
        )
        assert code == 0
        envelope = load_certificate(path)
        assert set(envelope["certificates"]) == {"chu-ad-opt", "vanbek-opt"}

    def test_certify_mapped_blif_file(self, tmp_path, ann_cache, capsys):
        blif = tmp_path / "chu.blif"
        assert main(
            ["map", "chu-ad-opt", "CMOS3", "--depth", "3",
             "--cache-dir", ann_cache, "--output", str(blif)]
        ) == 0
        capsys.readouterr()
        code = certify(
            "chu-ad-opt", "--mapped", str(blif), ann_cache=ann_cache
        )
        assert code == 0
        assert "CERTIFIED" in capsys.readouterr().out

    def test_wrong_mapped_blif_is_rejected(self, tmp_path, ann_cache, capsys):
        blif = tmp_path / "vanbek.blif"
        assert main(
            ["map", "vanbek-opt", "CMOS3", "--depth", "3",
             "--cache-dir", ann_cache, "--output", str(blif)]
        ) == 0
        capsys.readouterr()
        code = certify(
            "chu-ad-opt", "--mapped", str(blif), ann_cache=ann_cache
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REJECTED" in captured.out + captured.err

    def test_unknown_design_exits_2(self, capsys):
        assert certify("no-such-design") == 2

    def test_mapped_needs_exactly_one_design(self, tmp_path, capsys):
        assert certify(
            "chu-ad-opt", "vanbek-opt", "--mapped", str(tmp_path / "x.blif")
        ) == 2


class TestVerifyFlags:
    def test_map_verify_runs_the_certifier(self, ann_cache, capsys):
        code = main(
            ["map", "chu-ad-opt", "CMOS3", "--depth", "3",
             "--cache-dir", ann_cache, "--verify", "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verification: equivalent=True hazard_safe=True" in out
        assert "conformance.certificates = 1" in out

    def test_batch_verify_runs_the_certifier(self, ann_cache, capsys):
        code = main(
            ["batch", "chu-ad-opt", "vanbek-opt",
             "--backend", "serial", "--depth", "3",
             "--cache-dir", ann_cache, "--verify", "--metrics"]
        )
        assert code == 0
        assert "conformance.certificates = 2" in capsys.readouterr().out
