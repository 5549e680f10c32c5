"""One-call hazard characterization and the matching-filter comparison.

``analyze_expression`` / ``analyze_cover`` run the full battery of
section-4 algorithms on an implementation and return a
:class:`HazardAnalysis` holding the hazard records of every class.  The
library loader annotates each cell with one of these (section 3.2.1);
the matching routine compares a hazardous cell's analysis against the
subnetwork being replaced (section 3.2.2) with :func:`hazards_subset`.

Two comparison modes are provided:

* ``"exact"`` (default) — the cell's hazardous transitions are
  enumerated exhaustively once (at library-annotation time, which is
  exactly where the paper pays its initialization overhead, Table 2)
  and each is replayed on the subnetwork with the exact event-lattice
  check.  Sound and complete.
* ``"paper"`` — uses only the efficient section-4 record lists.  This
  is the paper's procedure verbatim; it is exact for irredundant
  covers but can miss pulse hazards of *absorbed* cubes (a cube
  contained in two others), a case our test-suite documents.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .witness import HazardWitness

from ..boolean.cover import Cover
from ..boolean.expr import Expr
from ..boolean.paths import LabeledSop, label_cover, label_expression
from .dynamic import find_mic_dyn_haz_2level
from .multilevel import find_mic_dyn_haz_multilevel, transition_has_hazard
from .oracle import TransitionVerdict, hazardous_transitions
from .sic import find_sic_dynamic_hazards
from .static0 import find_static0_hazards
from .static1 import find_static1_hazards, find_static1_hazards_complete
from .types import (
    HazardSummary,
    MicDynamicHazard,
    SicDynamicHazard,
    Static0Hazard,
    Static1Hazard,
)

#: Exhaustive transition enumeration is attempted up to this many inputs.
#: Beyond it the record-based section-4 algorithms stand alone (the
#: test-suite validates their agreement with the exhaustive oracle at
#: enumerable sizes).
EXHAUSTIVE_MAX_VARS = 7


class HazardAnalysis:
    """The logic-hazard behaviour of one implementation.

    ``lsop`` is the path-labelled flattening used for dynamic and
    vacuous-term analysis, and the only part the exact filter reads of a
    subnetwork; ``plain`` the label-free flattened SOP
    (static-hazard-equivalent to the implementation), by default
    ``lsop.plain_cover()``; ``verdicts`` (when computed) the exhaustive
    list of logic-hazardous transitions.

    The four section-4 record lists (``static1``, ``static0``,
    ``mic_dynamic``, ``sic_dynamic``) are given together, or derived
    from ``lsop`` by the multilevel procedures the first time one of
    them is read (:attr:`records_computed` tells whether that happened).
    A screened cluster thus pays for its records only when the record
    filter reads them.
    """

    def __init__(
        self,
        names: Sequence[str],
        lsop: LabeledSop,
        plain: Optional[Cover] = None,
        static1: Optional[list[Static1Hazard]] = None,
        static0: Optional[list[Static0Hazard]] = None,
        mic_dynamic: Optional[list[MicDynamicHazard]] = None,
        sic_dynamic: Optional[list[SicDynamicHazard]] = None,
        verdicts: Optional[list[TransitionVerdict]] = None,
    ) -> None:
        self.names = list(names)
        self.lsop = lsop
        self._plain = plain
        self._records = (
            None
            if static1 is None
            else (static1, static0, mic_dynamic, sic_dynamic)
        )
        self.verdicts = verdicts

    @property
    def plain(self) -> Cover:
        return self._plain if self._plain is not None else self.lsop.plain_cover()

    @property
    def records_computed(self) -> bool:
        return self._records is not None

    def _record_lists(self) -> tuple:
        if self._records is None:
            lsop = self.lsop
            self._records = (
                find_static1_hazards(self.plain),
                find_static0_hazards(lsop),
                find_mic_dyn_haz_multilevel(lsop),
                find_sic_dynamic_hazards(lsop),
            )
        return self._records

    @property
    def static1(self) -> list[Static1Hazard]:
        return self._record_lists()[0]

    @property
    def static0(self) -> list[Static0Hazard]:
        return self._record_lists()[1]

    @property
    def mic_dynamic(self) -> list[MicDynamicHazard]:
        return self._record_lists()[2]

    @property
    def sic_dynamic(self) -> list[SicDynamicHazard]:
        return self._record_lists()[3]

    @property
    def has_hazards(self) -> bool:
        return bool(self.verdicts) or any(self._record_lists())

    def summary(self) -> HazardSummary:
        return HazardSummary(
            static1=len(self.static1),
            static0=len(self.static0),
            mic_dynamic=len(self.mic_dynamic),
            sic_dynamic=len(self.sic_dynamic),
        )

    def describe(self) -> list[str]:
        lines = []
        for hazard in self.static1:
            lines.append(hazard.describe(self.names))
        for hazard in self.static0:
            lines.append(hazard.describe(self.names))
        for hazard in self.mic_dynamic:
            lines.append(hazard.describe(self.names))
        for hazard in self.sic_dynamic:
            lines.append(hazard.describe(self.names))
        return lines

    def ensure_verdicts(self) -> Optional[list[TransitionVerdict]]:
        """Compute (and cache) the exhaustive hazardous-transition list.

        Returns ``None`` when the input count makes enumeration
        unreasonable; callers then fall back to the record lists.
        """
        if self.verdicts is not None:
            return self.verdicts
        if self.nvars > EXHAUSTIVE_MAX_VARS:
            return None
        self.verdicts = hazardous_transitions(self.lsop)
        return self.verdicts

    @property
    def nvars(self) -> int:
        return len(self.names)


def analyze_cover(
    cover: Cover,
    names: Optional[Sequence[str]] = None,
    exhaustive: bool = False,
    metrics=None,
) -> HazardAnalysis:
    """Hazard analysis of a two-level AND-OR implementation.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) counts
    the call and times it under ``hazard.cover_analyses`` /
    ``hazard.analysis_seconds``.
    """
    start = _time.perf_counter() if metrics is not None else 0.0
    if names is None:
        names = [f"x{i}" for i in range(cover.nvars)]
    names = list(names)
    lsop = label_cover(cover, names)
    analysis = HazardAnalysis(
        names=names,
        plain=cover.dedup(),
        lsop=lsop,
        static1=find_static1_hazards(cover),
        static0=find_static0_hazards(lsop),  # none for plain SOP, by construction
        mic_dynamic=find_mic_dyn_haz_2level(cover),
        sic_dynamic=find_sic_dynamic_hazards(lsop),
    )
    if exhaustive:
        analysis.ensure_verdicts()
    if metrics is not None:
        metrics.counter("hazard.cover_analyses").inc()
        metrics.histogram("hazard.analysis_seconds").observe(
            _time.perf_counter() - start
        )
    return analysis


def analyze_expression(
    expr: Expr,
    names: Optional[Sequence[str]] = None,
    exhaustive: bool = False,
    metrics=None,
) -> HazardAnalysis:
    """Hazard analysis of a multilevel Boolean-factored-form structure.

    This is the library-element annotation pass of section 3.2.1: the
    BFF is flattened with hazard-preserving transformations and each
    class of logic hazards is characterized.  With ``exhaustive`` the
    complete hazardous-transition list is also stored (library cells are
    small, and this is where the async mapper pays its initialization
    overhead).

    ``metrics`` counts the call and times it under
    ``hazard.expression_analyses`` / ``hazard.analysis_seconds``.
    """
    start = _time.perf_counter() if metrics is not None else 0.0
    if names is None:
        names = sorted(expr.support())
    names = list(names)
    analysis = HazardAnalysis(names, label_expression(expr, names))
    analysis._record_lists()  # the whole battery, up front
    if exhaustive:
        analysis.ensure_verdicts()
    if metrics is not None:
        metrics.counter("hazard.expression_analyses").inc()
        metrics.histogram("hazard.analysis_seconds").observe(
            _time.perf_counter() - start
        )
    return analysis


def _map_point(point: int, mapping: Sequence[int], old_nvars: int) -> int:
    result = 0
    for i in range(old_nvars):
        if point >> i & 1:
            result |= 1 << mapping[i]
    return result


def hazards_subset(
    cell: HazardAnalysis,
    target: HazardAnalysis,
    mapping: Optional[Sequence[int]] = None,
    mode: str = "exact",
) -> bool:
    """Section 3.2.2 filter: ``hazards(cell) ⊆ hazards(target)``?

    ``mapping`` renames cell variable ``i`` to target variable
    ``mapping[i]`` (the Boolean match's pin binding); identity when
    omitted.  See the module docstring for the two modes.
    """
    mapping = _binding(cell, mapping)
    return next(_offences(cell, target, mapping, mode), None) is None


def _binding(cell: HazardAnalysis, mapping: Optional[Sequence[int]]) -> list[int]:
    return list(range(cell.nvars)) if mapping is None else list(mapping)


def _offences(
    cell: HazardAnalysis,
    target: HazardAnalysis,
    mapping: list[int],
    mode: str,
) -> Iterator[object]:
    """Each hazard of ``cell`` that ``target`` does not share, in a fixed
    order and lazily: the one walk behind :func:`hazards_subset` and
    :func:`find_subset_violation`.

    The exact mode yields the cell's :class:`TransitionVerdict` objects
    whose transition, carried through ``mapping``, does not glitch the
    target.  The record walk (``"paper"``, or a cell too wide to
    enumerate) yields cell-space section-4 records.
    """
    if mode == "exact":
        verdicts = cell.ensure_verdicts()
        if verdicts is not None:
            nvars = cell.nvars
            for verdict in verdicts:
                start = _map_point(verdict.start, mapping, nvars)
                end = _map_point(verdict.end, mapping, nvars)
                if not transition_has_hazard(target.lsop, start, end):
                    yield verdict
            return
        # Too large to enumerate — fall through to the record walk.
    yield from _record_offences(cell, target, mapping)


def _condition_exhibited(records, var: int, condition: Cover, nvars: int) -> bool:
    """Is ``condition`` covered by the union of the targets' confirmed
    pulse conditions for ``var``?

    The records are the target's own ``static0`` / ``sic_dynamic``
    lists, already computed at analysis time — re-deriving them per
    match (as ``exhibits_static0`` does for standalone use) would redo
    the candidate extraction and lattice confirmation on every filter
    call.
    """
    pulses = [h.condition for h in records if h.var == var]
    if not pulses:
        return False
    union = Cover.empty(nvars)
    for cover in pulses:
        union = union.union(cover)
    return union.contains_cover(condition)


def _record_offences(
    cell: HazardAnalysis,
    target: HazardAnalysis,
    mapping: list[int],
) -> Iterator[object]:
    """The record-list walk, per hazard class (paper section 3.2.2)."""
    nvars = target.nvars

    # Static-1: exact two-cover criterion — every transition safe in the
    # cell must be safe in the target, i.e. every cube of the target's
    # flattened cover lies inside a single cube of the mapped cell cover.
    # A cube that is not names the cell's own hazard record, mapped back
    # through the (injective) binding.
    mapped_cell_cover = cell.plain.remap(mapping, nvars)
    for cube in target.plain.dedup():
        if not mapped_cell_cover.single_cube_contains(cube):
            inverse = [0] * nvars
            for i, m in enumerate(mapping):
                inverse[m] = i
            yield Static1Hazard(cube.remap(inverse, cell.nvars))

    for s0 in cell.static0:
        mapped = s0.remap(mapping, nvars)
        if not _condition_exhibited(
            target.static0, mapped.var, mapped.condition, nvars
        ):
            yield s0
    for sic in cell.sic_dynamic:
        mapped = sic.remap(mapping, nvars)
        if not _condition_exhibited(
            target.sic_dynamic, mapped.var, mapped.condition, nvars
        ):
            yield sic
    for dyn in cell.mic_dynamic:
        mapped = dyn.remap(mapping, nvars)
        if not transition_has_hazard(target.lsop, mapped.start, mapped.end):
            yield dyn


@dataclass(frozen=True)
class SubsetViolation:
    """Why :func:`hazards_subset` said no, with evidence.

    ``witness`` is a cell-space :class:`repro.hazards.witness
    .HazardWitness` demonstrating the offending hazard on the cell's own
    implementation; ``target_start``/``target_end`` is the same
    transition transported through the pin binding into the subnetwork's
    variable space — where the replacement target does *not* glitch,
    which is exactly what makes the cell unsafe there.
    """

    kind: str
    detail: str
    witness: Optional["HazardWitness"]
    target_start: int
    target_end: int


def find_subset_violation(
    cell: HazardAnalysis,
    target: HazardAnalysis,
    mapping: Optional[Sequence[int]] = None,
    mode: str = "exact",
) -> Optional[SubsetViolation]:
    """First hazard of ``cell`` that ``target`` does not share.

    The provenance twin of :func:`hazards_subset`: the same walk, but
    instead of a verdict it returns the first offending hazard with a
    witness — ``None`` iff the filter would accept.  Pure and
    deterministic (the record lists and verdicts are in fixed order), so
    the explain layer gets identical reasons on every run.
    """
    from .witness import witness_for_record, witness_for_verdict

    mapping = _binding(cell, mapping)
    offence = next(_offences(cell, target, mapping, mode), None)
    if offence is None:
        return None
    if isinstance(offence, TransitionVerdict):
        witness = witness_for_verdict(offence, cell)
        detail = witness.detail
    else:
        witness = witness_for_record(offence, cell)
        detail = offence.describe(cell.names)
    if witness is None:  # no spanning transition (degenerate record)
        return SubsetViolation("unknown", detail, None, 0, 0)
    return SubsetViolation(
        witness.kind,
        detail,
        witness,
        _map_point(witness.start, mapping, cell.nvars),
        _map_point(witness.end, mapping, cell.nvars),
    )


def static1_census(cover: Cover) -> list[Static1Hazard]:
    """Complete static-1 hazard list (uncovered primes) — used by the
    library census where existence, not the efficient summary, matters."""
    return find_static1_hazards_complete(cover)
