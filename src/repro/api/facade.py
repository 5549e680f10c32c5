"""The one execution path behind every ``repro-api/v1`` request.

``execute_map`` is the single implementation the CLI ``map`` command,
the batch engine's workers, and the HTTP service all call: resolve the
design and library, build :class:`~repro.mapping.mapper.MappingOptions`
from the request's option fields, run the mapper under the request's
cooperative deadline (degrading to the trivial depth-1 cover on
overrun), and package the result as a :class:`~repro.api.schema.
MapResponse` whose BLIF text — and hence SHA-256 digest — is
byte-identical for a given request no matter which entry point issued
it.

Libraries are process-wide singletons (:func:`shared_library`), so a
long-lived caller — the service daemon, a batch worker mapping many
designs — pays the Table-2 annotation cost once per library, not once
per request.
"""

from __future__ import annotations

import hashlib
import io
import threading
from dataclasses import replace
from typing import Optional, Union

from ..deadline import Deadline, DeadlineExceeded
from ..library import anncache
from ..library.library import Library
from ..network.netlist import Netlist
from .schema import (
    ApiError,
    CertifyRequest,
    CertifyResponse,
    MapRequest,
    MapResponse,
)

#: Depth the trivial-cover fallback maps at when a deadline fires:
#: single-node clusters only, which turns the covering DP into a
#: per-gate cheapest-cell lookup — orders of magnitude faster and
#: always feasible (decomposition emits only base gates every standard
#: library covers).
FALLBACK_DEPTH = 1


def netlist_blif(netlist: Netlist) -> str:
    """The canonical BLIF text of a netlist (the byte-identity form)."""
    from ..io import write_blif

    buffer = io.StringIO()
    write_blif(netlist, buffer)
    return buffer.getvalue()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ``load_library`` returns one cached instance per name; the lock makes
# concurrent first requests (daemon handler threads) build it once.
_LIBRARY_LOCK = threading.Lock()


def shared_library(name: str) -> Library:
    """The process-wide warm instance of a standard library."""
    from ..library.standard import load_library

    with _LIBRARY_LOCK:
        return load_library(name)


def clear_library_cache() -> None:
    """Drop the warm libraries (tests, and cold-start benchmarks)."""
    from ..library.standard import ALL_LIBRARIES

    with _LIBRARY_LOCK:
        for factory in ALL_LIBRARIES.values():
            factory.cache_clear()


def loaded_libraries() -> list[str]:
    """Names of the process-wide warm libraries (``/healthz`` reports
    these so load balancers can tell a preloaded daemon from a cold one)."""
    from ..library.standard import ALL_LIBRARIES

    return sorted(
        name
        for name, factory in ALL_LIBRARIES.items()
        if factory.cache_info().currsize
    )


def request_netlist(
    request: Union[MapRequest, CertifyRequest],
) -> Netlist:
    """Resolve a request's design — catalog name or inline network."""
    if request.design is not None:
        from ..burstmode.benchmarks import CATALOG, synthesize_benchmark

        if request.design not in CATALOG:
            raise ApiError(f"unknown catalog benchmark {request.design!r}")
        return synthesize_benchmark(request.design).netlist(request.design)
    network = request.network
    assert network is not None
    try:
        if "blif" in network:
            from ..io import read_blif

            netlist = read_blif(io.StringIO(network["blif"]))
        else:
            netlist = Netlist.from_equations(
                dict(network["equations"]),
                name=str(network.get("name") or "inline"),
                inputs=list(network["inputs"])
                if network.get("inputs")
                else None,
            )
    except ApiError:
        raise
    except Exception as exc:
        raise ApiError(f"bad inline network: {exc}") from exc
    if network.get("name"):
        netlist.name = str(network["name"])
    return netlist


def _resolve_library(request, library: Optional[Library]) -> Library:
    if library is not None:
        return library
    from ..library.standard import ALL_LIBRARIES

    if request.library not in ALL_LIBRARIES:
        raise ApiError(f"unknown library {request.library!r}")
    return shared_library(request.library)


def _mapping_options(
    request: MapRequest,
    *,
    cache_dir: anncache.CacheDir,
    tracer,
    metrics,
    deadline: Optional[Deadline],
    max_depth: Optional[int] = None,
):
    from ..mapping.mapper import MappingOptions

    input_bursts = None
    if request.dont_cares:
        from ..burstmode.benchmarks import synthesize_benchmark
        from ..mapping.dontcare import synthesis_bursts

        assert request.design is not None  # enforced by MapRequest
        input_bursts = synthesis_bursts(synthesize_benchmark(request.design))
    return MappingOptions(
        max_depth=request.max_depth if max_depth is None else max_depth,
        max_inputs=request.max_inputs,
        objective=request.objective,
        filter_mode=request.filter_mode,
        input_bursts=input_bursts,
        annotation_cache_dir=cache_dir,
        tracer=tracer,
        metrics=metrics,
        explain=request.explain,
        deadline=deadline,
    )


def run_map(
    request: MapRequest,
    *,
    library: Optional[Library] = None,
    network: Optional[Netlist] = None,
    cache_dir: anncache.CacheDir = None,
    metrics=None,
    tracer=None,
) -> tuple[MapResponse, Optional["MappingResult"]]:
    """Execute one map request; returns the response AND the raw result.

    The raw :class:`~repro.mapping.mapper.MappingResult` carries the
    in-memory objects (netlists, cover stats, annotation report) the
    CLI prints from; remote callers only ever see the
    :class:`MapResponse`.  ``library``/``network`` short-circuit
    resolution when the caller already holds the objects.

    With ``request.result_cache`` on, the content-addressed result
    cache (:mod:`repro.cache.resultcache`) is consulted first; a hit
    replays the stored response verbatim (tagged ``cached="memory"`` or
    ``"disk"``) and the raw result is ``None`` — callers that print
    from the in-memory objects must fall back to the response fields.
    """
    from ..mapping.mapper import map_network
    from ..obs.tracer import NULL_TRACER

    net = network if network is not None else request_netlist(request)
    lib = _resolve_library(request, library)
    result_cache = cache_key = None
    trc = tracer if tracer is not None else NULL_TRACER
    if request.result_cache:
        from ..cache.resultcache import ResultCache, request_cache_key

        result_cache = ResultCache(cache_dir)
        cache_key = request_cache_key(request, netlist_blif(net), lib)
        with trc.span(
            "result_cache",
            op="lookup",
            design=request.design_name,
            library=lib.name,
            key=cache_key[:12],
        ) as span:
            hit = result_cache.lookup(cache_key, metrics=metrics)
            if hit is not None:
                tier, payload = hit
                span.set_attr(tier=tier)
                response = MapResponse.from_payload(payload)
                return replace(response, cached=tier), None
            span.set_attr(tier="miss")
    deadline = (
        Deadline(request.deadline_seconds)
        if request.deadline_seconds is not None
        else None
    )
    options = _mapping_options(
        request,
        cache_dir=cache_dir,
        tracer=tracer,
        metrics=metrics,
        deadline=deadline,
    )
    fallback = None
    deadline_site = None
    try:
        result = map_network(net, lib, options, mode=request.mode)
    except DeadlineExceeded as exc:
        # Graceful degradation: re-map with the trivial depth-1 cover,
        # which needs no meaningful budget.  Any injected hang already
        # fired this attempt, so the fallback pass runs clean.
        fallback = "trivial-cover"
        deadline_site = exc.site
        fallback_options = _mapping_options(
            request,
            cache_dir=cache_dir,
            tracer=tracer,
            metrics=metrics,
            deadline=None,
            max_depth=FALLBACK_DEPTH,
        )
        result = map_network(net, lib, fallback_options, mode=request.mode)
    response = _response_from_result(
        request,
        result,
        fallback=fallback,
        deadline_site=deadline_site,
        metrics=metrics,
        tracer=tracer,
    )
    if result_cache is not None and fallback is None:
        # Fallback responses are deadline artifacts, not the mapping of
        # this key — caching one would replay a degraded netlist on a
        # later run with a comfortable budget.
        with trc.span(
            "result_cache",
            op="store",
            design=request.design_name,
            library=lib.name,
            key=cache_key[:12],
        ):
            result_cache.store(
                cache_key,
                response.to_payload(),
                library=lib,
                design=request.design_name,
                metrics=metrics,
            )
    return response, result


def execute_map(
    request: MapRequest,
    *,
    library: Optional[Library] = None,
    network: Optional[Netlist] = None,
    cache_dir: anncache.CacheDir = None,
    metrics=None,
    tracer=None,
) -> MapResponse:
    """Execute one ``repro-api/v1`` map request to its response."""
    response, _ = run_map(
        request,
        library=library,
        network=network,
        cache_dir=cache_dir,
        metrics=metrics,
        tracer=tracer,
    )
    return response


def certify_verdict(result, *, metrics=None, tracer=None) -> dict:
    """The ``verify`` verdict of a mapping: the certifier's, at its defaults.

    ``ok`` is ``certificate.certified``, so besides equivalence and
    Theorem 3.2 containment it covers the interface and the cell
    bindings the in-memory netlist still carries.
    """
    from ..conformance.certifier import certify_mapping

    certificate = certify_mapping(
        result.source,
        result.mapped,
        result.library,
        metrics=metrics,
        tracer=tracer,
    )
    return {
        "equivalent": certificate.equivalent,
        "hazard_safe": certificate.hazard_safe,
        "ok": certificate.certified,
    }


def _response_from_result(
    request: MapRequest,
    result,
    *,
    fallback: Optional[str],
    deadline_site: Optional[str],
    metrics=None,
    tracer=None,
) -> MapResponse:
    blif = netlist_blif(result.mapped)
    verify_verdicts = None
    if request.verify:
        verify_verdicts = certify_verdict(
            result, metrics=metrics, tracer=tracer
        )
    explain_payload = None
    if request.explain and result.explain is not None:
        explain_payload = result.explain.to_dict()
    stats = result.stats
    annotation = result.annotation_report
    return MapResponse(
        status="ok",
        design=request.design_name,
        library=result.library.name,
        mode=result.mode,
        area=result.area,
        delay=round(result.delay, 4),
        cells=int(sum(result.cell_usage().values())),
        cell_usage={k: int(v) for k, v in sorted(result.cell_usage().items())},
        cones=stats.cones,
        matches=stats.matches,
        filter_invocations=stats.filter_invocations,
        map_seconds=round(result.elapsed, 4),
        annotate_seconds=round(result.annotate_elapsed, 4),
        annotate_source=annotation.source if annotation is not None else None,
        digest=text_digest(blif),
        blif=blif,
        fallback=fallback,
        deadline_site=deadline_site,
        verify=verify_verdicts,
        explain=explain_payload,
    )


def execute_certify(
    request: CertifyRequest,
    *,
    cache_dir: anncache.CacheDir = None,
    metrics=None,
    tracer=None,
) -> CertifyResponse:
    """Independently certify a mapped BLIF against its source design.

    The source resolves like a map request's (catalog name or inline
    network); the check itself runs in
    :mod:`repro.conformance.certifier`, which shares no code with the
    mapper's matching/covering machinery.
    """
    from ..conformance.certifier import certify_mapping

    source = request_netlist(request)
    try:
        mapped = read_blif_text(request.mapped_blif)
    except Exception as exc:
        raise ApiError(f"bad mapped_blif: {exc}") from exc
    library = None
    if request.library is not None:
        from ..library.standard import ALL_LIBRARIES

        if request.library not in ALL_LIBRARIES:
            raise ApiError(f"unknown library {request.library!r}")
        library = shared_library(request.library)
    certificate = certify_mapping(
        source,
        mapped,
        library,
        exhaustive_limit=request.exhaustive_limit,
        samples=request.samples,
        seed=request.seed,
        metrics=metrics,
        tracer=tracer,
    )
    # One dict tree: the headline counterexamples are the document's.
    document = certificate.to_dict()
    return CertifyResponse(
        verdict=certificate.verdict,
        certified=certificate.certified,
        equivalent=certificate.equivalent,
        hazard_safe=certificate.hazard_safe,
        outputs_checked=certificate.outputs_checked,
        transitions_checked=certificate.transitions_checked,
        replays=certificate.replays,
        evidence_digest=certificate.evidence_digest,
        violations=tuple(certificate.violations),
        counterexamples=tuple(document["counterexamples"]),
        certificate=document,
    )


def read_blif_text(text: str) -> Netlist:
    """Parse BLIF text into a netlist (the inverse of ``netlist_blif``)."""
    from ..io import read_blif

    return read_blif(io.StringIO(text))


__all__ = [
    "FALLBACK_DEPTH",
    "clear_library_cache",
    "loaded_libraries",
    "execute_certify",
    "execute_map",
    "netlist_blif",
    "read_blif_text",
    "request_netlist",
    "run_map",
    "shared_library",
    "text_digest",
]
