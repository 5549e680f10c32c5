"""Catalog-scale determinism: the batch engine vs sequential mapping.

The ISSUE's headline acceptance criterion: every netlist produced by
``repro batch`` on the process backend over the full benchmark catalog
must be **byte-identical** to a sequential
:func:`repro.mapping.map_network` run of the same (design, library,
options) spec — and identical again across backends and worker counts.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchConfig, run_batch, text_digest, validate_journal
from repro.batch import check_artifacts
from repro.batch.jobs import netlist_blif
from repro.burstmode.benchmarks import TABLE5_ORDER
from repro.library.standard import load_library
from repro.mapping import MappingOptions, map_network

from tests.batch.util import DEPTH, make_jobs

LIBRARIES = ("CMOS3", "ACTEL")
SUBSET = ("chu-ad-opt", "vanbek-opt", "dme-opt")


@pytest.fixture(scope="module")
def references(ann_cache) -> dict[str, str]:
    """Sequential ``map_network`` BLIF text for every (design, library)."""
    refs = {}
    for library_name in LIBRARIES:
        library = load_library(library_name)
        for design in TABLE5_ORDER:
            options = MappingOptions(
                max_depth=DEPTH, annotation_cache_dir=ann_cache
            )
            result = map_network(design, library, options)
            refs[f"{design}@{library_name}"] = netlist_blif(result.mapped)
    return refs


class TestFullCatalog:
    def test_process_backend_is_byte_identical_to_sequential(
        self, references, tmp_path, ann_cache
    ):
        jobs = [
            job
            for library in LIBRARIES
            for job in make_jobs(TABLE5_ORDER, library=library)
        ]
        report = run_batch(
            jobs,
            BatchConfig(
                backend="processes",
                workers=2,
                cache_dir=ann_cache,
                journal=tmp_path / "journal.jsonl",
                output_dir=tmp_path,
            ),
        )
        assert report.ok
        assert report.counts()["ok"] == len(jobs) == 2 * len(TABLE5_ORDER)
        # Results come back in job-spec order regardless of completion
        # order on the pool.
        assert [r["job_id"] for r in report.results] == [
            j.job_id for j in jobs
        ]
        for record in report.results:
            assert record["blif"] == references[record["job_id"]]
            assert record["digest"] == text_digest(record["blif"])
            assert record["attempts"] == 1
            # Artifacts on disk are the same bytes.
            artifact = tmp_path / record["artifact"]
            assert artifact.read_text() == record["blif"]
        _, results = validate_journal(tmp_path / "journal.jsonl")
        assert len(results) == len(jobs)
        assert check_artifacts(results, tmp_path) == []

    def test_catalog_quality_stats_survive_the_batch_hop(
        self, references, ann_cache
    ):
        """Spot-check that per-job stats are the sequential ones."""
        library = load_library("CMOS3")
        options = MappingOptions(max_depth=DEPTH, annotation_cache_dir=ann_cache)
        sequential = map_network("chu-ad-opt", library, options)
        report = run_batch(
            make_jobs(("chu-ad-opt",)),
            BatchConfig(backend="processes", cache_dir=ann_cache),
        )
        record = report.results[0]
        assert record["area"] == sequential.area
        assert record["delay"] == round(sequential.delay, 4)
        assert record["cells"] == sum(sequential.cell_usage().values())
        assert record["cones"] == sequential.stats.cones


class TestCrossBackendIdentity:
    @pytest.mark.parametrize(
        "backend,workers",
        [("serial", 1), ("processes", 4)],
    )
    def test_backend_and_worker_count_never_change_bytes(
        self, references, ann_cache, backend, workers
    ):
        jobs = [
            job
            for library in LIBRARIES
            for job in make_jobs(SUBSET, library=library)
        ]
        report = run_batch(
            jobs,
            BatchConfig(backend=backend, workers=workers, cache_dir=ann_cache),
        )
        assert report.ok
        assert report.backend == backend and report.workers == workers
        for record in report.results:
            assert record["blif"] == references[record["job_id"]], (
                f"{record['job_id']} diverged on {backend}/{workers}"
            )

    def test_verify_and_explain_ride_along(self, ann_cache):
        from repro.obs.explain import validate_explain_payload

        report = run_batch(
            make_jobs(SUBSET, verify=True, explain=True),
            BatchConfig(backend="processes", workers=2, cache_dir=ann_cache),
        )
        assert report.ok
        for record in report.results:
            assert record["verify"]["ok"] is True
            validate_explain_payload(record["explain"])
