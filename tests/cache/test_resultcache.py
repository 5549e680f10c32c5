"""Unit coverage of the content-addressed result cache.

Key derivation (two spellings of identical options share one key),
both storage tiers (LRU bounds, disk bounds, oldest-first eviction),
and the verification discipline: corrupt, truncated, version-stamped
or mis-keyed entries are evicted and recomputed — never served.
"""

from __future__ import annotations

import json

import pytest

from repro.api.schema import MapRequest
from repro.cache import resultcache
from repro.cache.resultcache import (
    MemoryTier,
    RESULT_CACHE_VERSION,
    RESULT_SCHEMA,
    ResultCache,
    normalized_options,
    request_cache_key,
    result_cache_key,
    result_path,
)
from repro.library.standard import load_library
from repro.obs.metrics import MetricsRegistry

BLIF = ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n"


@pytest.fixture(scope="module")
def library():
    return load_library("CMOS3")


def _response_payload(blif: str = BLIF) -> dict:
    from repro.api.facade import text_digest

    return {
        "schema": "repro-api/v1",
        "kind": "map_response",
        "status": "ok",
        "digest": text_digest(blif),
        "blif": blif,
    }


class TestKeyDerivation:
    def test_two_spellings_of_identical_options_share_a_key(self, library):
        # Spelling 1: defaults left implicit.  Spelling 2: every default
        # written out, plus result-neutral knobs at non-default values.
        implicit = {}
        explicit = {
            "mode": "async",
            "max_depth": 5,
            "max_inputs": 8,
            "objective": "area",
            "filter_mode": "exact",
            "dont_cares": False,
            "verify": False,
            "explain": False,
            "deadline_seconds": 2.0,  # result-neutral
            "result_cache": True,  # the toggle itself is result-neutral
        }
        assert normalized_options(implicit) == normalized_options(explicit)
        assert result_cache_key(BLIF, library, implicit) == result_cache_key(
            BLIF, library, explicit
        )

    def test_result_affecting_options_change_the_key(self, library):
        base = result_cache_key(BLIF, library, {})
        assert result_cache_key(BLIF, library, {"max_depth": 3}) != base
        assert result_cache_key(BLIF, library, {"objective": "delay"}) != base
        assert result_cache_key(BLIF, library, {"verify": True}) != base

    def test_network_and_library_change_the_key(self, library):
        base = result_cache_key(BLIF, library, {})
        assert result_cache_key(BLIF + "\n", library, {}) != base
        actel = load_library("ACTEL")
        assert result_cache_key(BLIF, actel, {}) != base

    def test_request_key_matches_option_dict_key(self, library):
        request = MapRequest(
            library="CMOS3", design="chu-ad-opt", max_depth=3,
            result_cache=True,
        )
        assert request_cache_key(request, library) == result_cache_key(
            "design:chu-ad-opt", library, {"max_depth": 3}
        )


class TestMemoryTier:
    def test_lru_bound_evicts_least_recently_used(self):
        tier = MemoryTier(max_entries=2)
        tier.put("a", {"v": 1})
        tier.put("b", {"v": 2})
        assert tier.get("a") == {"v": 1}  # refresh a; b is now LRU
        tier.put("c", {"v": 3})
        assert tier.get("b") is None
        assert tier.get("a") is not None and tier.get("c") is not None
        assert tier.evictions == 1
        assert len(tier) == 2

    def test_zero_bound_stores_nothing(self):
        tier = MemoryTier(max_entries=0)
        tier.put("a", {"v": 1})
        assert tier.get("a") is None and len(tier) == 0

    def test_clear_reports_dropped_count(self):
        tier = MemoryTier()
        tier.put("a", {}), tier.put("b", {})
        assert tier.clear() == 2 and len(tier) == 0


class TestDiskTier:
    def test_store_then_lookup_round_trips(self, tmp_path, library):
        cache = ResultCache(tmp_path)
        metrics = MetricsRegistry()
        key = result_cache_key(BLIF, library, {})
        assert cache.lookup(key, metrics=metrics) is None
        cache.store(
            key,
            _response_payload(),
            library=library,
            design="t",
            metrics=metrics,
        )
        tier, payload = cache.lookup(key, metrics=metrics)
        assert tier == "memory"  # store primes the LRU
        assert payload["blif"] == BLIF
        # A cold process (empty LRU) reads the disk entry.
        resultcache.MEMORY.clear()
        tier, payload = cache.lookup(key, metrics=metrics)
        assert tier == "disk"
        assert payload["blif"] == BLIF
        snap = metrics.snapshot()
        assert snap["cache.result.hits"]["value"] == 2
        assert snap["cache.result.misses"]["value"] == 1
        assert snap["cache.result.stores"]["value"] == 1
        assert snap["cache.result.lookup_seconds"]["count"] == 3

    def test_entry_is_self_describing(self, tmp_path, library):
        cache = ResultCache(tmp_path)
        key = result_cache_key(BLIF, library, {})
        path = cache.store(key, _response_payload(), library=library, design="t")
        entry = json.loads(path.read_text())
        assert entry["schema"] == RESULT_SCHEMA
        assert entry["cache_version"] == RESULT_CACHE_VERSION
        assert entry["key"] == key
        assert entry["library"] == "CMOS3"
        assert entry["library_fingerprint"]

    def test_truncated_entry_is_evicted_not_served(self, tmp_path, library):
        cache = ResultCache(tmp_path)
        metrics = MetricsRegistry()
        key = result_cache_key(BLIF, library, {})
        path = cache.store(key, _response_payload())
        resultcache.MEMORY.clear()
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.lookup(key, metrics=metrics) is None
        assert not path.exists()  # evicted, so the recompute stores clean
        snap = metrics.snapshot()
        assert snap["cache.result.verify_failures"]["value"] == 1
        assert snap["cache.result.evictions"]["value"] == 1

    def test_tampered_blif_fails_digest_verification(self, tmp_path, library):
        cache = ResultCache(tmp_path)
        key = result_cache_key(BLIF, library, {})
        path = cache.store(key, _response_payload())
        resultcache.MEMORY.clear()
        entry = json.loads(path.read_text())
        entry["response"]["blif"] = BLIF.replace("11 1", "10 1")
        path.write_text(json.dumps(entry))
        assert cache.lookup(key) is None
        assert not path.exists()

    def test_version_stamp_mismatch_is_rejected(self, tmp_path, library):
        cache = ResultCache(tmp_path)
        key = result_cache_key(BLIF, library, {})
        path = cache.store(key, _response_payload())
        resultcache.MEMORY.clear()
        entry = json.loads(path.read_text())
        entry["cache_version"] = RESULT_CACHE_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.lookup(key) is None
        assert not path.exists()

    def test_foreign_key_entry_is_rejected(self, tmp_path, library):
        cache = ResultCache(tmp_path)
        key = result_cache_key(BLIF, library, {})
        other = result_cache_key(BLIF, library, {"max_depth": 3})
        path = cache.store(key, _response_payload())
        resultcache.MEMORY.clear()
        # Simulate a mis-filed entry: key A's payload under key B's path.
        result_path(tmp_path, other).write_text(path.read_text())
        assert cache.lookup(other) is None

    def test_entry_count_bound_evicts_oldest(self, tmp_path, library):
        import os

        cache = ResultCache(tmp_path, max_entries=2, max_bytes=10**9)
        keys = [
            result_cache_key(BLIF, library, {"max_depth": depth})
            for depth in (2, 3, 4)
        ]
        for index, key in enumerate(keys):
            path = cache.store(key, _response_payload())
            # Deterministic mtime order regardless of filesystem clock
            # granularity: older entries get strictly older stamps.
            stamp = 1_000_000 + index
            os.utime(path, (stamp, stamp))
        # Bounds run after each store; the third store evicted the oldest.
        remaining = {path.stem for path in resultcache.result_entries(tmp_path)}
        assert len(remaining) == 2
        assert keys[0] not in remaining

    def test_byte_size_bound_evicts_down(self, tmp_path, library):
        key_a = result_cache_key(BLIF, library, {})
        key_b = result_cache_key(BLIF, library, {"max_depth": 3})
        cache = ResultCache(tmp_path, max_entries=100, max_bytes=1)
        cache.store(key_a, _response_payload())
        cache.store(key_b, _response_payload())
        # Both entries exceed one byte, so at most one (the newest,
        # stored after the prune of the first) survives each pass.
        assert len(resultcache.result_entries(tmp_path)) <= 1

    def test_disabled_disk_tier_still_serves_memory(self, library):
        from repro.library.anncache import DISABLED

        cache = ResultCache(DISABLED)
        assert cache.disk_dir is None
        key = result_cache_key(BLIF, library, {})
        assert cache.store(key, _response_payload()) is None
        tier, payload = cache.lookup(key)
        assert tier == "memory" and payload["blif"] == BLIF
        assert resultcache.result_entries(DISABLED) == []

    def test_clear_result_cache_empties_both_tiers(self, tmp_path, library):
        cache = ResultCache(tmp_path)
        key = result_cache_key(BLIF, library, {})
        cache.store(key, _response_payload())
        assert resultcache.clear_result_cache(tmp_path) == 1
        assert resultcache.result_entries(tmp_path) == []
        assert len(resultcache.MEMORY) == 0


class TestEnvironmentResolution:
    def test_unset_toggle_keeps_disk_tier_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert resultcache.resolve_result_cache_dir(None) is None

    def test_toggle_path_and_auto(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        assert resultcache.resolve_result_cache_dir(None) == tmp_path
        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        assert resultcache.resolve_result_cache_dir(None) is None
        monkeypatch.setenv("REPRO_RESULT_CACHE", "auto")
        assert resultcache.resolve_result_cache_dir(None) is not None

    def test_explicit_dir_beats_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        assert resultcache.resolve_result_cache_dir(tmp_path) == tmp_path
