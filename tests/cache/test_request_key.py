"""The result-cache key is read off the request, not the network.

``request_cache_key(request, library)`` hashes the catalog name or the
inline network dict as sent, so ``run_map`` looks up before it resolves
anything: a hit builds no network and writes no BLIF.  One key denotes
one mapped network, so spellings that build different networks (two
equation orders, an inline BLIF with and without ``name``) are
different keys, and so are a design's by-name and inline requests.
Requests that cannot be resolved still fail and store nothing.
"""

from __future__ import annotations

import pytest

from repro.api import facade
from repro.api.facade import netlist_blif, request_netlist, run_map
from repro.api.schema import ApiError, MapRequest
from repro.burstmode.benchmarks import CATALOG
from repro.cache import resultcache
from repro.cache.resultcache import request_cache_key
from repro.library import anncache
from repro.library.standard import load_library
from repro.service import MappingService, ServiceConfig
from repro.service.client import ServiceClient, ServiceError

DEPTH = 3
EQUATIONS = {"f": "s*a + s'*b", "g": "a*b + f"}


@pytest.fixture(scope="module")
def library():
    return load_library("CMOS3")


def _catalog_blif(design: str) -> str:
    return netlist_blif(
        request_netlist(MapRequest(library="CMOS3", design=design))
    )


class TestHitBuildsNoNetwork:
    @pytest.mark.parametrize("inline", [False, True], ids=["name", "inline"])
    def test_memory_and_disk_hits_resolve_nothing(
        self, inline, tmp_path, library, monkeypatch
    ):
        where = (
            {"network": {"blif": _catalog_blif("chu-ad-opt")}}
            if inline else {"design": "chu-ad-opt"}
        )
        request = MapRequest(
            library="CMOS3", max_depth=DEPTH, result_cache=True, **where
        )
        cold, result = run_map(request, library=library, cache_dir=tmp_path)
        assert result is not None and cold.cached is None

        def resolved(*args, **kwargs):
            raise AssertionError("a result-cache hit resolved its network")

        for name in (
            "request_netlist", "read_blif", "netlist_blif",
            "synthesize_benchmark",
        ):
            monkeypatch.setattr(facade, name, resolved)
        memory, _ = run_map(request, library=library, cache_dir=tmp_path)
        resultcache.MEMORY.clear()
        disk, _ = run_map(request, library=library, cache_dir=tmp_path)
        assert (memory.cached, disk.cached) == ("memory", "disk")
        for warm in (memory, disk):
            assert warm.blif == cold.blif and warm.digest == cold.digest


class TestOneKeyOneNetwork:
    def test_equation_order_is_part_of_the_key(self, library):
        swapped = dict(reversed(list(EQUATIONS.items())))
        requests = [
            MapRequest(library="CMOS3", network={"equations": equations})
            for equations in (EQUATIONS, swapped)
        ]
        # Equation order decides gate order, so the networks differ...
        first, second = (netlist_blif(request_netlist(r)) for r in requests)
        assert first != second
        # ...and the key must not sort the dict to make them one.
        assert request_cache_key(requests[0], library) != request_cache_key(
            requests[1], library
        )

    def test_inline_name_is_part_of_the_key(self, library):
        blif = _catalog_blif("vanbek-opt")
        plain = MapRequest(library="CMOS3", network={"blif": blif})
        named = MapRequest(
            library="CMOS3", network={"blif": blif, "name": "renamed"}
        )
        # The name renames the network, and with it the mapped model.
        assert request_netlist(plain).name != request_netlist(named).name
        assert request_cache_key(plain, library) != request_cache_key(
            named, library
        )

    def test_by_name_and_inline_requests_are_different_keys(self, library):
        # Never one key: on every catalog design the inline round trip's
        # canonical BLIF already differs from the by-name network's.
        for design in CATALOG:
            blif = _catalog_blif(design)
            by_name = MapRequest(library="CMOS3", design=design)
            inline = MapRequest(library="CMOS3", network={"blif": blif})
            assert netlist_blif(request_netlist(inline)) != blif, design
            assert request_cache_key(by_name, library) != request_cache_key(
                inline, library
            ), design

    @pytest.mark.parametrize(
        "design", ["chu-ad-opt", "vanbek-opt", "pe-send-ifc"]
    )
    def test_by_name_and_inline_can_map_differently(self, design, library):
        where = [
            {"design": design},
            {"network": {"blif": _catalog_blif(design), "name": design}},
        ]
        digests = {
            facade.execute_map(
                MapRequest(library="ACTEL", max_depth=DEPTH, **form),
                cache_dir=anncache.DISABLED,
            ).digest
            for form in where
        }
        assert len(digests) == 2


class TestUnresolvableRequestsStoreNothing:
    BAD = [
        {"design": "no-such-design"},
        {"network": {"blif": ".model t\n.inputs a\n.outputs y\n"
                             ".names a y\n0 1 1\n.end\n"}},
    ]

    @pytest.mark.parametrize("where", BAD, ids=["unknown-design", "bad-blif"])
    def test_facade_raises_and_stores_nothing(self, where, tmp_path, library):
        request = MapRequest(library="CMOS3", result_cache=True, **where)
        with pytest.raises(ApiError):
            run_map(request, library=library, cache_dir=tmp_path)
        assert len(resultcache.MEMORY) == 0
        assert resultcache.result_entries(tmp_path) == []

    def test_daemon_answers_400_and_stores_nothing(self, tmp_path):
        config = ServiceConfig(port=0, cache_dir=str(tmp_path))
        with MappingService(config).running() as service:
            client = ServiceClient(service.url)
            try:
                for where in self.BAD:
                    request = MapRequest(
                        library="CMOS3", result_cache=True, **where
                    )
                    with pytest.raises(ServiceError) as excinfo:
                        client.map(request)
                    assert excinfo.value.status == 400
            finally:
                client.close()
        assert len(resultcache.MEMORY) == 0
        assert resultcache.result_entries(tmp_path) == []
