"""Result cache under the batch engine and under process concurrency.

Cross-backend byte-identity with the cache on (warm results must equal
cold and cache-disabled results bit for bit), warm runs actually served
from the cache, and two processes storing the same key concurrently
without tearing the payload.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.batch import BatchConfig, BatchJob, run_batch
from repro.cache import resultcache
from repro.cache.resultcache import ResultCache, result_cache_key, result_path
from repro.library.standard import load_library
from repro.obs.metrics import MetricsRegistry

SMALL = ("chu-ad-opt", "vanbek-opt")
DEPTH = 3

BLIF = ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n"


def _jobs():
    return [
        BatchJob(design=design, library="CMOS3", max_depth=DEPTH)
        for design in SMALL
    ]


def _digests(report) -> dict:
    return {r["job_id"]: r["digest"] for r in report.results}


class TestBatchByteIdentity:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_cached_batch_matches_uncached_across_backends(
        self, backend, tmp_path, ann_cache
    ):
        resultcache.MEMORY.clear()
        cache_dir = str(tmp_path / "cache")
        baseline = run_batch(
            _jobs(),
            BatchConfig(
                backend=backend, workers=2, cache_dir=ann_cache,
            ),
        )
        cold = run_batch(
            _jobs(),
            BatchConfig(
                backend=backend, workers=2, cache_dir=cache_dir,
                result_cache=True,
            ),
        )
        warm = run_batch(
            _jobs(),
            BatchConfig(
                backend=backend, workers=2, cache_dir=cache_dir,
                result_cache=True,
            ),
        )
        assert baseline.ok and cold.ok and warm.ok
        assert _digests(cold) == _digests(baseline)
        assert _digests(warm) == _digests(baseline)
        # The warm run was actually served from the cache...
        assert all(
            record.get("cached") in ("memory", "disk")
            for record in warm.results
        )
        # ...and the cold run stored one entry per job.
        assert len(resultcache.result_entries(cache_dir)) == len(SMALL)

    def test_warm_run_counts_hits_on_inprocess_backend(
        self, tmp_path, ann_cache
    ):
        resultcache.MEMORY.clear()
        cache_dir = str(tmp_path / "cache")
        metrics = MetricsRegistry()
        config = BatchConfig(
            backend="serial", workers=2, cache_dir=cache_dir,
            result_cache=True, metrics=metrics,
        )
        run_batch(_jobs(), config)
        run_batch(_jobs(), config)
        snap = metrics.snapshot()
        assert snap["cache.result.hits"]["value"] == len(SMALL)
        assert snap["cache.result.misses"]["value"] == len(SMALL)


def _store_worker(cache_dir: str, key: str, iterations: int) -> None:
    from repro.api.facade import text_digest

    cache = ResultCache(cache_dir)
    payload = {
        "schema": "repro-api/v1",
        "kind": "map_response",
        "status": "ok",
        "digest": text_digest(BLIF),
        "blif": BLIF,
    }
    for _ in range(iterations):
        cache.store(key, payload)


class TestConcurrentStores:
    def test_two_processes_storing_one_key_never_tear(self, tmp_path):
        library = load_library("CMOS3")
        key = result_cache_key(BLIF, library, {})
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(
                target=_store_worker, args=(str(tmp_path), key, 20)
            )
            for _ in range(2)
        ]
        for proc in writers:
            proc.start()
        path = result_path(tmp_path, key)
        observed = 0
        try:
            # The parent polls as the concurrent reader: a published
            # payload must always be complete JSON (os.replace) and must
            # always verify (both writers store the same content).
            while any(proc.is_alive() for proc in writers):
                if path.exists():
                    text = path.read_text()
                    if text:
                        entry = json.loads(text)
                        assert entry["key"] == key
                        observed += 1
        finally:
            for proc in writers:
                proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers)
        entry = json.loads(path.read_text())
        assert entry["response"]["blif"] == BLIF
        observed += 1
        assert observed > 0
        # The cache still serves the entry, and no temp file leaked.
        resultcache.MEMORY.clear()
        tier, payload = ResultCache(tmp_path).lookup(key)
        assert tier == "disk" and payload["blif"] == BLIF
        leftovers = [p for p in path.parent.iterdir() if ".tmp-" in p.name]
        assert leftovers == []
