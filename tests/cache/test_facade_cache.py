"""The result cache through the one execution path (`run_map`).

A hit replays the stored response verbatim (raw result ``None``,
``cached`` tier set); a deadline-fallback response is never stored;
and the cached BLIF is byte-identical to a cache-disabled run.
"""

from __future__ import annotations

import json

import pytest

from repro.api.facade import netlist_blif, request_netlist, run_map
from repro.api.schema import ApiError, MapRequest, MapResponse
from repro.cache import resultcache
from repro.library import anncache
from repro.library.standard import load_library
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.testing import faults
from repro.testing.faults import FaultPlan

DEPTH = 3


@pytest.fixture(scope="module")
def library():
    return load_library("CMOS3")


def _request(**overrides) -> MapRequest:
    values = dict(
        library="CMOS3",
        design="chu-ad-opt",
        max_depth=DEPTH,
        result_cache=True,
    )
    values.update(overrides)
    return MapRequest(**values)


class TestRunMapCaching:
    def test_miss_then_hit_replays_identical_response(self, tmp_path, library):
        metrics = MetricsRegistry()
        cold, result = run_map(
            _request(), library=library, cache_dir=str(tmp_path),
            metrics=metrics,
        )
        assert result is not None and cold.cached is None
        warm, warm_result = run_map(
            _request(), library=library, cache_dir=str(tmp_path),
            metrics=metrics,
        )
        assert warm_result is None
        assert warm.cached == "memory"
        assert warm.blif == cold.blif and warm.digest == cold.digest
        assert warm.area == cold.area and warm.cells == cold.cells
        snap = metrics.snapshot()
        assert snap["cache.result.hits"]["value"] == 1
        assert snap["cache.result.misses"]["value"] == 1
        assert snap["cache.result.stores"]["value"] == 1

    def test_disk_hit_after_memory_clear(self, tmp_path, library):
        cold, _ = run_map(_request(), library=library, cache_dir=str(tmp_path))
        resultcache.MEMORY.clear()
        warm, _ = run_map(_request(), library=library, cache_dir=str(tmp_path))
        assert warm.cached == "disk"
        assert warm.blif == cold.blif

    def test_cached_blif_matches_cache_disabled_run(self, tmp_path, library):
        run_map(_request(), library=library, cache_dir=str(tmp_path))
        warm, _ = run_map(_request(), library=library, cache_dir=str(tmp_path))
        plain, _ = run_map(
            _request(result_cache=False),
            library=library,
            cache_dir=anncache.DISABLED,
        )
        assert warm.blif == plain.blif
        assert warm.digest == plain.digest

    def test_version_2_entry_with_workers_is_recomputed(
        self, tmp_path, library, monkeypatch
    ):
        # A version-2 cache wrote map responses with a "workers" field,
        # which MapResponse.from_payload now rejects; the version bump
        # must turn such an entry into a miss, never an ApiError.
        plain, _ = run_map(
            _request(result_cache=False),
            library=library,
            cache_dir=anncache.DISABLED,
        )
        stale = {**plain.to_payload(), "workers": 1}
        with pytest.raises(ApiError, match="workers"):
            MapResponse.from_payload(stale)
        with monkeypatch.context() as patch:
            patch.setattr(resultcache, "RESULT_CACHE_VERSION", 2)
            key = resultcache.request_cache_key(
                _request(), netlist_blif(request_netlist(_request())), library
            )
            path = resultcache.result_path(tmp_path, key)
        assert path.parent.name == "v2"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "schema": resultcache.RESULT_SCHEMA,
            "cache_version": 2,
            "key": key,
            "created": 0.0,
            "library": "CMOS3",
            "library_fingerprint": None,
            "design": "chu-ad-opt",
            "response": stale,
        }))
        fresh, result = run_map(
            _request(), library=library, cache_dir=str(tmp_path)
        )
        assert result is not None and fresh.cached is None
        assert fresh.digest == plain.digest

    def test_option_change_is_a_miss(self, tmp_path, library):
        run_map(_request(), library=library, cache_dir=str(tmp_path))
        other, other_result = run_map(
            _request(max_depth=2), library=library, cache_dir=str(tmp_path)
        )
        assert other_result is not None and other.cached is None

    def test_result_cache_off_never_touches_the_cache(self, tmp_path, library):
        metrics = MetricsRegistry()
        run_map(
            _request(result_cache=False),
            library=library,
            cache_dir=str(tmp_path),
            metrics=metrics,
        )
        assert "cache.result.misses" not in metrics.snapshot()
        assert resultcache.result_entries(str(tmp_path)) == []

    def test_fallback_response_is_never_stored(self, tmp_path, library):
        faults.install_plan(
            FaultPlan.parse(["hang@netlist.build"]), job="t@L", attempt=1
        )
        try:
            response, _ = run_map(
                _request(deadline_seconds=0.05),
                library=library,
                cache_dir=str(tmp_path),
            )
        finally:
            faults.clear_plan()
        assert response.fallback == "trivial-cover"
        assert resultcache.result_entries(str(tmp_path)) == []
        assert len(resultcache.MEMORY) == 0
        # The next (undeadlined) run is a miss, maps fully, and stores.
        clean, clean_result = run_map(
            _request(), library=library, cache_dir=str(tmp_path)
        )
        assert clean_result is not None and clean.fallback is None
        assert len(resultcache.result_entries(str(tmp_path))) == 1

    def test_lookup_and_store_appear_as_spans(self, tmp_path, library):
        tracer = Tracer()
        run_map(
            _request(), library=library, cache_dir=str(tmp_path),
            tracer=tracer,
        )
        warm_tracer = Tracer()
        run_map(
            _request(), library=library, cache_dir=str(tmp_path),
            tracer=warm_tracer,
        )
        def names(tracer):
            spans = []
            def walk(span):
                spans.append((span.name, dict(span.attrs)))
                for child in span.children:
                    walk(child)
            for root in tracer.roots():
                walk(root)
            return spans
        cold_ops = [
            attrs["op"] for name, attrs in names(tracer)
            if name == "result_cache"
        ]
        assert cold_ops == ["lookup", "store"]
        warm_spans = [
            attrs for name, attrs in names(warm_tracer)
            if name == "result_cache"
        ]
        assert [attrs["op"] for attrs in warm_spans] == ["lookup"]
        assert warm_spans[0]["tier"] == "memory"

    def test_verify_rides_the_cache_key(self, tmp_path, library):
        """verify=True responses carry verdicts, so they get their own key."""
        plain, _ = run_map(_request(), library=library, cache_dir=str(tmp_path))
        verified, verified_result = run_map(
            _request(verify=True), library=library, cache_dir=str(tmp_path)
        )
        assert verified_result is not None  # different key -> miss
        assert verified.verify == {
            "equivalent": True, "hazard_safe": True, "ok": True,
        }
        warm, warm_result = run_map(
            _request(verify=True), library=library, cache_dir=str(tmp_path)
        )
        assert warm_result is None
        assert warm.verify == verified.verify
