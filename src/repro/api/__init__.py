"""``repro.api`` — the versioned facade over the mapping pipeline.

The request/response contract (``repro-api/v1``) lives in
:mod:`repro.api.schema`; the one execution path behind it in
:mod:`repro.api.facade`.  Quickstart::

    from repro.api import MapRequest, execute_map

    response = execute_map(MapRequest(design="dme", library="CMOS3",
                                      verify=True))
    assert response.verify["ok"]
    open("dme.blif", "w").write(response.blif)

``verify=True`` attaches the verdict of
:func:`repro.conformance.certify_mapping` at its defaults — the same
checker ``repro certify`` and ``execute_certify`` run.

The CLI (``repro map``/``batch``/``explain``/``certify``), the batch
engine's workers, and the HTTP service (``repro serve``: ``/v1/map``
and ``/v1/certify``) all route through this module, so the response
for a given request is byte-identical no matter which entry point
issued it.  ``explain=True`` on a map request attaches the
``repro-explain/v1`` decision log, which
:func:`repro.obs.explain.render_explain` turns into the report
``repro explain`` prints.  See ``docs/api.md`` for the payload schema
and the deprecation policy.
"""

from .facade import (  # noqa: F401
    FALLBACK_DEPTH,
    clear_library_cache,
    execute_certify,
    execute_map,
    netlist_blif,
    read_blif_text,
    request_netlist,
    run_map,
    shared_library,
    text_digest,
)
from .schema import (  # noqa: F401
    API_SCHEMA,
    ApiError,
    BATCH_OPTION_NAMES,
    CertifyRequest,
    CertifyResponse,
    FILTER_MODES,
    MODES,
    MapRequest,
    MapResponse,
    OBJECTIVES,
    OPTION_FIELDS,
    OPTION_NAMES,
    OptionField,
    add_option_arguments,
    option_values_from_args,
    parse_request,
)

__all__ = [
    "API_SCHEMA",
    "ApiError",
    "BATCH_OPTION_NAMES",
    "CertifyRequest",
    "CertifyResponse",
    "FALLBACK_DEPTH",
    "FILTER_MODES",
    "MODES",
    "MapRequest",
    "MapResponse",
    "OBJECTIVES",
    "OPTION_FIELDS",
    "OPTION_NAMES",
    "OptionField",
    "add_option_arguments",
    "clear_library_cache",
    "execute_certify",
    "execute_map",
    "netlist_blif",
    "read_blif_text",
    "option_values_from_args",
    "parse_request",
    "request_netlist",
    "run_map",
    "shared_library",
    "text_digest",
]
