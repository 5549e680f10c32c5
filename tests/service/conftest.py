"""Fixtures for the service tests: hermetic in-process daemons.

Each test gets factory-fresh libraries (the ``lru_cache``'d
standard-library constructors are cleared), so cold-vs-warm annotation
behaviour is deterministic no matter which tests ran before.
"""

from __future__ import annotations

import pytest

from repro.api.facade import clear_library_cache
from repro.library import anncache
from repro.service import MappingService, ServiceConfig
from repro.service.client import ServiceClient


@pytest.fixture(autouse=True)
def fresh_libraries():
    clear_library_cache()
    yield
    clear_library_cache()


@pytest.fixture
def make_service():
    """Factory for running in-process services (ephemeral ports).

    Returns ``(service, client)`` pairs; at teardown every client's
    connections are closed, and every service is drained and closed in
    reverse creation order.
    """
    active = []
    clients = []

    def _make(**kwargs):
        kwargs.setdefault("port", 0)
        # Hermetic: tests must not read or write the user's annotation
        # cache unless they opt in with an explicit cache_dir.
        kwargs.setdefault("cache_dir", anncache.DISABLED)
        service = MappingService(ServiceConfig(**kwargs))
        context = service.running()
        context.__enter__()
        active.append(context)
        clients.append(ServiceClient(service.url))
        return service, clients[-1]

    yield _make
    for client in clients:
        client.close()
    for context in reversed(active):
        context.__exit__(None, None, None)
