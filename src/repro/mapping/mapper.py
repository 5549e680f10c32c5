"""The technology mappers: synchronous ``tmap`` and async ``async_tmap``.

Section 3's procedures, verbatim in structure::

    procedure tmap(network, library) {
        decomposed-network = tech-decomp(network);
        cones = partition(decomposed-network);
        foreach output in cones { find_best_cover(output, library); }
    }

    procedure async_tmap(network, library) {
        augment-library-with-hazard-info(library);
        decomposed-network = async_tech_decomp(network);
        cones = partition(decomposed-network);
        foreach output in cones { find-best-async-cover(output, library); }
    }

The two differ in (a) the decomposition (hazard-preserving vs.
simplifying), (b) library annotation, and (c) the hazardous-match
filter inside covering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

from ..deadline import Deadline
from ..library import anncache
from ..library.library import AnnotationReport, Library
from ..network.decompose import async_tech_decomp, tech_decomp
from ..network.netlist import Netlist
from ..network.partition import partition
from ..obs.explain import ConeExplain, ExplainLog
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..testing import faults
from .cover import ConeCover, CoverStats, cover_cone
from .match import MatchMemo


@dataclass
class MappingOptions:
    """Mapper knobs; the paper runs everything at depth 5.

    ``input_bursts`` (a list of
    :class:`repro.mapping.dontcare.InputBurst`) switches on the
    hazard-don't-care extension of section 6: hazards no specified
    burst can excite are waived during matching.

    ``annotation_cache_dir`` is forwarded to
    :meth:`repro.library.library.Library.annotate_hazards` so the
    one-time Table-2 annotation cost can be replayed from disk.  Pass
    :data:`repro.library.anncache.DISABLED` to bypass the cache even
    when the ``REPRO_ANNOTATION_CACHE`` environment toggle is set.

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) records the run as
    a hierarchical span tree — annotate → decompose → partition →
    per-cone covering (cluster enumeration + match/cover) → netlist
    build; ``None`` disables tracing at no measurable cost.  ``metrics``
    supplies the :class:`repro.obs.metrics.MetricsRegistry` the run
    publishes into; when ``None`` each result gets a private registry
    (``MappingResult.metrics``).  Tracers and registries are plain
    per-run objects — concurrent ``map_network`` calls with distinct
    ones never share state.

    ``explain`` records decision-level provenance: every (cluster, cell)
    candidate the covering DP examined, with its outcome and — for
    hazard rejections — the offending §4 hazard plus a replayable
    witness transition (``MappingResult.explain``, an
    :class:`repro.obs.explain.ExplainLog`), one recorder per cone in
    cone order; disabled, the hot path pays one ``is None`` check per
    match.

    ``deadline`` (a :class:`repro.deadline.Deadline`) bounds the run
    cooperatively: the mapper checks it before annotation, before each
    cone's covering, and before netlist assembly, raising
    :class:`repro.deadline.DeadlineExceeded` at the first checkpoint
    past the budget.  The batch engine catches that and degrades to a
    trivial depth-1 cover; direct callers see the exception.
    """

    max_depth: int = 5
    max_inputs: int = 8
    objective: str = "area"
    filter_mode: str = "exact"
    input_bursts: Optional[list] = None
    annotation_cache_dir: anncache.CacheDir = None
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    explain: bool = False
    deadline: Optional[Deadline] = None


@dataclass
class MappingResult:
    """A mapped network plus quality/runtime accounting."""

    mapped: Netlist
    source: Netlist
    library: Library
    mode: str
    area: float
    delay: float
    elapsed: float
    annotate_elapsed: float = 0.0
    stats: CoverStats = field(default_factory=CoverStats)
    covers: list[ConeCover] = field(default_factory=list)
    annotation_report: Optional[AnnotationReport] = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    explain: Optional[ExplainLog] = None

    def cell_usage(self) -> dict[str, int]:
        return self.mapped.cell_usage()

    def summary(self) -> dict[str, float]:
        return {
            "area": self.area,
            "delay": round(self.delay, 2),
            "cells": float(sum(self.cell_usage().values())),
            "cpu": round(self.elapsed, 3),
        }


def tmap(
    network: Netlist,
    library: Library,
    options: Optional[MappingOptions] = None,
) -> MappingResult:
    """Synchronous technology mapping (the CERES-style baseline).

    Uses the simplifying decomposition and ignores hazards entirely —
    hence unsafe for fundamental-mode asynchronous designs (Figure 3).
    """
    options = options or MappingOptions()
    tracer = options.tracer or NULL_TRACER
    metrics = options.metrics if options.metrics is not None else MetricsRegistry()
    start = time.perf_counter()
    with tracer.span("tmap", design=network.name, library=library.name):
        decomposed = tech_decomp(network, tracer=tracer)
        result = _map_decomposed(
            network,
            decomposed,
            library,
            options,
            hazard_filter=False,
            mode="sync",
            metrics=metrics,
        )
    result.elapsed = time.perf_counter() - start
    _finalize_metrics(result)
    return result


def async_tmap(
    network: Netlist,
    library: Library,
    options: Optional[MappingOptions] = None,
) -> MappingResult:
    """Asynchronous technology mapping (the paper's contribution).

    Hazard-annotates the library (once), decomposes hazard-preservingly
    and screens hazardous-cell matches, so the mapped network has no
    logic hazard absent from the source (Theorem 3.2).  ``elapsed``
    starts after the annotation, which ``annotate_elapsed`` reports.
    """
    options = options or MappingOptions()
    tracer = options.tracer or NULL_TRACER
    metrics = options.metrics if options.metrics is not None else MetricsRegistry()
    annotate_elapsed = 0.0
    annotation_report = None
    with tracer.span("async_tmap", design=network.name, library=library.name):
        faults.fire("annotate.library", options.deadline)
        if options.deadline is not None:
            options.deadline.check("annotate.library")
        if not library.annotated:
            annotation_report = library.annotate_hazards(
                cache_dir=options.annotation_cache_dir,
                tracer=tracer,
                metrics=metrics,
            )
            annotate_elapsed = annotation_report.elapsed
        start = time.perf_counter()
        decomposed = async_tech_decomp(network, tracer=tracer)
        result = _map_decomposed(
            network,
            decomposed,
            library,
            options,
            hazard_filter=True,
            mode="async",
            metrics=metrics,
        )
    result.elapsed = time.perf_counter() - start
    result.annotate_elapsed = annotate_elapsed
    result.annotation_report = annotation_report
    _finalize_metrics(result)
    return result


def map_network(
    design: Union[str, Netlist],
    library: Union[str, Library],
    options: Optional[MappingOptions] = None,
    mode: str = "async",
) -> MappingResult:
    """Map one design onto one library — the single-job entry point.

    ``design`` is a :class:`~repro.network.netlist.Netlist` or a
    benchmark-catalog name; ``library`` a :class:`Library` or a standard
    library name.  ``mode`` selects :func:`async_tmap` (``"async"``,
    the paper's hazard-safe flow) or :func:`tmap` (``"sync"``).  The
    batch engine's workers call exactly this function, which is what
    makes ``repro batch`` results byte-identical to per-design
    ``repro map`` runs.
    """
    if isinstance(design, str):
        from ..burstmode.benchmarks import synthesize_benchmark

        design = synthesize_benchmark(design).netlist(design)
    if isinstance(library, str):
        from ..library.standard import load_library

        library = load_library(library)
    if mode not in ("async", "sync"):
        raise ValueError(f"unknown mapping mode {mode!r}")
    mapper = async_tmap if mode == "async" else tmap
    return mapper(design, library, options)


def _map_decomposed(
    source: Netlist,
    decomposed: Netlist,
    library: Library,
    options: MappingOptions,
    hazard_filter: bool,
    mode: str,
    metrics: MetricsRegistry,
) -> MappingResult:
    dont_cares = None
    if hazard_filter and options.input_bursts:
        from .dontcare import HazardDontCares

        dont_cares = HazardDontCares(decomposed, options.input_bursts)
    tracer = options.tracer or NULL_TRACER
    cones = partition(decomposed, tracer=tracer)
    # One match memo per run: a cluster function's matches depend only
    # on (table, nvars) for this library, so cones share the answers.
    match_memo: MatchMemo = {}
    stats = CoverStats()
    covers: list[ConeCover] = []
    explain_log: Optional[ExplainLog] = None
    if options.explain:
        explain_log = ExplainLog(
            design=source.name,
            library=library.name,
            mode=mode,
            filter_mode=options.filter_mode,
            objective=options.objective,
        )

    with tracer.span("cover", cones=len(cones)):
        for cone in cones:
            faults.fire("cover.cone", options.deadline)
            if options.deadline is not None:
                # The cooperative per-cone checkpoint: a job past its
                # budget stops before starting another covering DP.
                options.deadline.check("cover.cone")
            cone_stats = CoverStats()
            cone_explain = ConeExplain(cone.root) if options.explain else None
            cone_start = time.perf_counter()
            with tracer.span("cone", key=cone.root, size=cone.size):
                cover = cover_cone(
                    decomposed,
                    cone,
                    library,
                    max_depth=options.max_depth,
                    max_inputs=options.max_inputs,
                    objective=options.objective,
                    hazard_filter=hazard_filter,
                    filter_mode=options.filter_mode,
                    stats=cone_stats,
                    dont_cares=dont_cares,
                    tracer=tracer,
                    explain=cone_explain,
                    match_memo=match_memo,
                )
            cone_stats.cones = 1
            cone_stats.cone_seconds = time.perf_counter() - cone_start
            covers.append(cover)
            stats.merge(cone_stats)
            if explain_log is not None and cone_explain is not None:
                explain_log.add_cone(cone_explain)

    faults.fire("netlist.build", options.deadline)
    if options.deadline is not None:
        options.deadline.check("netlist.build")
    with tracer.span("build_netlist") as build_span:
        mapped = _build_mapped_netlist(source, decomposed, covers)
        build_span.set_attr(gates=len(mapped.nodes))
    result = MappingResult(
        mapped=mapped,
        source=source,
        library=library,
        mode=mode,
        area=mapped.total_area(),
        delay=mapped.critical_path_delay(),
        elapsed=0.0,
        stats=stats,
        covers=covers,
        metrics=metrics,
        explain=explain_log,
    )
    return result


def _finalize_metrics(result: MappingResult) -> None:
    """Publish the run's quality/runtime accounting into its registry."""
    registry = result.metrics
    registry.absorb_cover_stats(result.stats)
    registry.gauge("map.mode").set(result.mode)
    registry.gauge("map.area").set(result.area)
    registry.gauge("map.delay").set(result.delay)
    registry.gauge("map.cells").set(sum(result.cell_usage().values()))
    registry.gauge("map.cones").set(result.stats.cones)
    registry.gauge("map.elapsed_seconds").set(result.elapsed)
    registry.gauge("map.annotate_seconds").set(result.annotate_elapsed)
    if result.explain is not None:
        result.explain.publish_metrics(registry)


def _build_mapped_netlist(
    source: Netlist, decomposed: Netlist, covers: list[ConeCover]
) -> Netlist:
    """Assemble the chosen selections into a mapped network.

    Cluster roots keep their decomposed-network names, so selections
    wire up across cone boundaries without renaming.
    """
    mapped = Netlist(source.name + ".mapped")
    for pi in decomposed.inputs:
        mapped.add_input(pi)
    for node in decomposed.nodes.values():
        if node.is_constant():
            from ..boolean.expr import Const

            assert isinstance(node.func, Const)
            mapped.add_constant(node.name, node.func.value)
    # Topologically safe insertion: gather all selections, then add in
    # dependency order (a selection's fanins are PIs or other roots).
    pending = {
        sel.cluster.root: sel for cover in covers for sel in cover.selections
    }
    placed: set[str] = set(mapped.inputs) | {
        n.name for n in mapped.nodes.values() if n.is_constant()
    }
    while pending:
        progress = False
        for root, sel in list(pending.items()):
            fanins = sel.match.fanin_names(list(sel.cluster.leaves))
            if all(f in placed for f in fanins):
                pin_map = dict(zip(sel.match.cell.pins, fanins))
                func = sel.match.cell.expression.rename(pin_map)
                mapped.add_gate(root, func, fanins, cell=sel.match.cell)
                placed.add(root)
                del pending[root]
                progress = True
        if not progress:
            raise RuntimeError("cyclic selection dependencies (internal error)")
    for out in decomposed.outputs:
        driver = decomposed.nodes[out].fanins[0]
        mapped.add_output(out, driver)
    return mapped
