"""``repro.service`` — the persistent mapping daemon and its client.

``repro serve`` keeps libraries loaded, hazard annotations hot, and
matching indexes built across requests, so only the per-request phases
of the DAC'93 flow (decompose, match+filter, cover) run per call; the
once-per-library phases (Table 2 annotation, index construction) are
paid at boot or on first use and then amortized forever.

Endpoints (all payloads are ``repro-api/v1`` documents, see
``docs/api.md``):

* ``POST /v1/map``     — one mapping job (``MapRequest``); set
  ``explain`` to attach the ``repro-explain/v1`` decision log
* ``POST /v1/certify`` — certify a mapped BLIF (``CertifyRequest``)
* ``GET  /healthz``    — liveness, drain state, in-flight count
* ``GET  /metrics``    — ``repro-metrics/v1`` snapshot of the registry

Quickstart::

    from repro.service import ServiceConfig, MappingService
    from repro.service.client import ServiceClient
    from repro.api import MapRequest

    with MappingService(ServiceConfig(port=0)).running() as service:
        client = ServiceClient(service.url)
        response = client.map(MapRequest(design="dme", library="CMOS3"))
"""

from .client import ServiceClient, ServiceError  # noqa: F401
from .daemon import (  # noqa: F401
    MappingService,
    ServiceConfig,
    serve,
)

__all__ = [
    "MappingService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "serve",
]
