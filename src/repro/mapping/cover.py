"""Minimum-cost covering of cones (matching + covering, section 3.1.3).

Dynamic programming over each fanout-free cone: for every gate, the
best realization is the cheapest (cluster, cell) pair rooted there plus
the best realizations of the cluster's internal leaves.  The
asynchronous variant differs in exactly one place — the matching filter
of section 3.2.2: a *hazardous* cell is accepted only if its hazards
(transported through the pin binding) are a subset of the hazards of
the subnetwork it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional

from ..boolean.paths import label_expression
from ..hazards.analyzer import (
    HazardAnalysis,
    find_subset_violation,
    hazards_subset,
)
from ..hazards.multilevel import transition_has_hazard
from ..library.library import Library
from ..network.netlist import Netlist
from ..network.partition import Cone
from ..obs.explain import (
    ACCEPTED,
    REJECTED_COST,
    REJECTED_HAZARD,
    WAIVED_DONT_CARE,
    violation_reason,
)
from ..obs.tracer import NULL_TRACER
from .cuts import Cluster, cluster_expression, enumerate_clusters
from .match import Match, MatchMemo, match_cluster


class MappingError(Exception):
    """Raised when a cone cannot be covered with the given library."""


@dataclass
class CoverStats:
    """Bookkeeping for the runtime analysis of Tables 2 and 4.

    Match and filter counts plus per-cone wall time (``cones`` /
    ``cone_seconds``, the sum of per-cone covering time).  ``clusters``
    counts the enumerated clusters the covering DP examined; enumeration
    stops at the library's widest cell (``Library.max_pins`` leaves), so
    wider clusters, which no cell can match, are never counted.
    ``cluster_cap_hits`` counts cone nodes whose enumeration stopped at
    the per-node cluster cap (``enumerate_clusters``'s
    ``max_clusters_per_node``); it reads 0 on the whole catalog.
    ``cluster_analyses`` counts screened clusters whose section-4 record
    lists were computed: only the record filter reads them
    (``filter_mode="paper"``, or a cell too wide for exhaustive
    verdicts), so it reads 0 on the catalog at the defaults.

    ``CoverStats`` is the per-cone accumulator; the run-level sink is
    the :class:`repro.obs.metrics.MetricsRegistry`
    (``MappingResult.metrics``), which absorbs the merged stats as
    ``cover.*`` counters.  Every counter in :attr:`COUNTER_FIELDS` is a
    pure function of design, library and options, so it is identical
    for any earlier run in the same process (asserted in
    ``tests/mapping/test_stats_merge.py``).
    """

    clusters: int = 0
    matches: int = 0
    hazardous_matches: int = 0
    hazard_rejections: int = 0
    hazard_accepts: int = 0
    dc_waivers: int = 0
    filter_invocations: int = 0
    cluster_cap_hits: int = 0
    cluster_analyses: int = 0
    cones: int = 0
    cone_seconds: float = 0.0

    #: Every field but the ``cone_seconds`` timing sum; filled in from
    #: the dataclass fields after the class, so no counter can be left out.
    COUNTER_FIELDS: ClassVar[tuple[str, ...]] = ()

    def merge(self, other: "CoverStats") -> None:
        for item in fields(self):
            name = item.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


CoverStats.COUNTER_FIELDS = tuple(
    item.name for item in fields(CoverStats) if item.name != "cone_seconds"
)


@dataclass
class Selection:
    """One chosen replacement: a cluster realized by a matched cell."""

    cluster: Cluster
    match: Match
    cost: float


@dataclass
class ConeCover:
    """The chosen selections realizing one cone, root-first."""

    cone: Cone
    selections: list[Selection] = field(default_factory=list)

    @property
    def area(self) -> float:
        return sum(s.match.cell.area for s in self.selections)


def cover_cone(
    netlist: Netlist,
    cone: Cone,
    library: Library,
    max_depth: int = 5,
    max_inputs: int = 8,
    objective: str = "area",
    hazard_filter: bool = False,
    filter_mode: str = "exact",
    stats: Optional[CoverStats] = None,
    dont_cares=None,
    tracer=None,
    explain=None,
    match_memo: Optional[MatchMemo] = None,
) -> ConeCover:
    """Find the best hazard-aware cover of one cone.

    With ``hazard_filter`` (the async mapper) every hazardous-cell match
    is screened with :func:`repro.hazards.analyzer.hazards_subset`
    before it may join the cover.  Hazard-free cells pass unscreened —
    by Corollary 3.1 they can only remove hazards.  When ``dont_cares``
    (a :class:`repro.mapping.dontcare.HazardDontCares`) is supplied, a
    rejected hazardous cell gets a second chance: hazards no specified
    burst can excite are waived (paper section 6's extension).

    Each cluster's path-labelled SOP is built at most once per cone, on
    its first hazardous match; the filter itself is a pure function of
    (cell, cluster, pin binding) and runs on every hazardous match.  The
    exact filter reads only that SOP; a cluster's section-4 record lists
    are computed, once, only when the record filter reads them
    (``filter_mode="paper"``, or a cell too wide for exhaustive
    verdicts), and counted in ``stats.cluster_analyses``.

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) records the two
    phases of the cone — cluster enumeration (section 3.1.3's candidate
    generation) and the match/filter/cover DP — as child spans of
    whatever span the caller has open; span granularity stays per-cone,
    never per-match, so disabled tracing costs two no-op ``with``
    blocks.

    ``explain`` (a :class:`repro.obs.explain.ConeExplain`) records every
    (cluster, cell) candidate with its outcome and, for hazard
    rejections, the offending hazard plus a concrete replayable witness
    (via :func:`repro.hazards.analyzer.find_subset_violation`).  With
    ``explain=None`` (the default) the hot path pays one ``is None``
    check per match.

    Only work that can produce a match is done: clusters are enumerated
    up to ``min(max_inputs, library.max_pins)`` leaves (a cluster's
    leaves are the union of its children's, so every narrower cluster
    is still built, in the same order), a cluster whose leaf count no
    cell has gets no expression, and each distinct cluster function is
    matched once per ``match_memo`` (see
    :func:`repro.mapping.match.match_cluster`).  The mapper passes one
    memo per run; without one, the memo lasts one cone.  A cluster's
    leaf cost (the sum of its leaves' best costs, their maximum for
    ``objective="delay"``) is computed once, at its first accepted
    match.
    """
    if stats is None:
        stats = CoverStats()
    if tracer is None:
        tracer = NULL_TRACER
    if match_memo is None:
        match_memo = {}
    with tracer.span("enumerate_clusters") as enum_span:
        capped: list[str] = []
        clusters = enumerate_clusters(
            netlist,
            cone,
            max_depth,
            min(max_inputs, library.max_pins),
            capped=capped,
        )
        stats.cluster_cap_hits += len(capped)
        enum_span.set_attr(
            nodes=len(clusters),
            clusters=sum(len(v) for v in clusters.values()),
        )

    # Per-cone memo: repeated hazardous matches on one cluster reuse its
    # labelled SOP, and its record lists once the record filter has
    # computed them.
    analysis_memo: dict[tuple[str, tuple[str, ...]], HazardAnalysis] = {}

    def cluster_analysis(cluster: Cluster, expr) -> HazardAnalysis:
        key = (cluster.root, cluster.leaves)
        analysis = analysis_memo.get(key)
        if analysis is None:
            analysis = HazardAnalysis(
                cluster.leaves, label_expression(expr, cluster.leaves)
            )
            analysis_memo[key] = analysis
        return analysis

    delay = objective == "delay"
    best: dict[str, tuple[float, Optional[Selection]]] = {
        leaf: (0.0, None) for leaf in cone.leaves
    }
    champion_records: dict[str, object] = {}

    def best_cost(name: str) -> float:
        if name in best:
            return best[name][0]
        node_clusters = clusters.get(name, [])
        stats.clusters += len(node_clusters)
        champion: Optional[Selection] = None
        champion_cost = float("inf")
        champion_record = None
        for cluster in node_clusters:
            if not library.by_pin_count(len(cluster.leaves)):
                continue
            expr = cluster_expression(netlist, cluster)
            matches = match_cluster(
                library, expr, cluster.leaves, memo=match_memo
            )
            leaf_cost: Optional[float] = None
            for match in matches:
                stats.matches += 1
                record = (
                    explain.candidate(name, cluster, match)
                    if explain is not None
                    else None
                )
                if hazard_filter and match.cell.is_hazardous:
                    stats.hazardous_matches += 1
                    analysis = cluster_analysis(cluster, expr)
                    assert match.cell.analysis is not None
                    stats.filter_invocations += 1
                    accepted = hazards_subset(
                        match.cell.analysis,
                        analysis,
                        mapping=list(match.binding),
                        mode=filter_mode,
                    )
                    waived = False
                    if not accepted and dont_cares is not None:
                        accepted = _accept_with_dont_cares(
                            dont_cares, match, cluster, analysis, stats
                        )
                        waived = accepted
                    if record is not None:
                        record.hazardous = True
                        record.screened = True
                        record.waived = waived
                    if not accepted:
                        stats.hazard_rejections += 1
                        if record is not None:
                            _record_rejection(
                                record, match, analysis, filter_mode
                            )
                        continue
                    stats.hazard_accepts += 1
                if leaf_cost is None:
                    # Once per cluster, at its first accepted match.
                    costs = (best_cost(leaf) for leaf in cluster.leaves)
                    leaf_cost = (
                        max(costs, default=0.0) if delay else sum(costs)
                    )
                own = match.cell.delay if delay else match.cell.area
                total = own + leaf_cost
                if record is not None:
                    record.cost = total
                if total < champion_cost:
                    champion_cost = total
                    champion = Selection(cluster, match, total)
                    if record is not None:
                        if champion_record is not None:
                            champion_record.outcome = REJECTED_COST
                        record.outcome = (
                            WAIVED_DONT_CARE if record.waived else ACCEPTED
                        )
                        champion_record = record
        if champion is None:
            raise MappingError(
                f"no library match covers node {name!r} "
                f"(library {library.name!r}; is the base-gate set present?)"
            )
        best[name] = (champion_cost, champion)
        if champion_record is not None:
            champion_records[name] = champion_record
        return champion_cost

    # ``objective == "delay"`` reuses best_cost as best-arrival.
    with tracer.span("match_cover") as match_span:
        best_cost(cone.root)

        # Reconstruct the chosen selections from the root down.
        cover = ConeCover(cone)
        frontier = [cone.root]
        visited: set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in visited or name in cone.leaves:
                continue
            visited.add(name)
            selection = best[name][1]
            if selection is None:
                continue
            cover.selections.append(selection)
            chosen = champion_records.get(name)
            if chosen is not None:
                chosen.selected = True
            frontier.extend(selection.cluster.leaves)
        match_span.set_attr(
            matches=stats.matches,
            filter_invocations=stats.filter_invocations,
            selections=len(cover.selections),
        )
    stats.cluster_analyses += sum(
        analysis.records_computed for analysis in analysis_memo.values()
    )
    return cover


def _record_rejection(record, match, analysis, filter_mode: str) -> None:
    """Attach the offending hazard + witness to a rejected candidate.

    Runs only on actual rejections with explain enabled, so it can
    afford the :func:`find_subset_violation` walk — a pure function of
    (cell, cluster, binding), hence identical on every run.
    """
    record.outcome = REJECTED_HAZARD
    violation = find_subset_violation(
        match.cell.analysis,
        analysis,
        mapping=list(match.binding),
        mode=filter_mode,
    )
    if violation is not None:
        record.reason = violation_reason(violation, analysis.names)


def _accept_with_dont_cares(dont_cares, match, cluster, analysis, stats) -> bool:
    """Second-chance screening under hazard don't-cares (section 6).

    The cell's exhaustive hazardous-transition list is filtered down to
    transitions some specified burst can excite; each surviving one must
    still be matched by the subnetwork.  Cells too large for exhaustive
    verdicts are not eligible (no sound waiver basis).
    """
    from .dontcare import waive_irrelevant_hazards

    assert match.cell.analysis is not None
    verdicts = match.cell.analysis.ensure_verdicts()
    if verdicts is None:
        return False
    relevant, waived = waive_irrelevant_hazards(
        dont_cares,
        list(cluster.leaves),
        verdicts,
        list(match.binding),
        match.cell.analysis.nvars,
    )
    if waived == 0:
        return False  # nothing waived: the plain filter already said no
    for start, end in relevant:
        if not transition_has_hazard(analysis.lsop, start, end):
            return False
    stats.dc_waivers += waived
    return True
