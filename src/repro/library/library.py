"""Cell libraries and the hazard-annotation pass.

``Library.annotate_hazards`` is the paper's
``augment-library-with-hazard-info``: every cell's BFF is analyzed once
when the library is read in (Table 2 measures this), and the per-cell
:class:`~repro.hazards.analyzer.HazardAnalysis` is consulted during
matching.  Matching-oriented indexes (pin count, permutation-invariant
signature) are built once, with the library.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from ..boolean import truthtable as tt
from ..obs.tracer import NULL_TRACER
from . import anncache
from .cell import LibraryCell


@dataclass
class AnnotationReport:
    """Timing/result record of a library hazard-annotation pass.

    ``source`` says where the analyses came from: ``"cold"`` (computed
    now), ``"disk"`` (replayed from the annotation cache), or
    ``"memory"`` (the library was already annotated).  ``cold_elapsed``
    always records the cold pass that originally produced the analyses,
    so warm reports expose both timings — the Table-2 initialization
    overhead and what the cache reduced it to.
    """

    library: str
    elapsed: float
    cells: int
    hazardous: int
    source: str = "cold"
    cold_elapsed: Optional[float] = None
    cache_path: Optional[str] = None

    @property
    def hazardous_fraction(self) -> float:
        return self.hazardous / self.cells if self.cells else 0.0

    @property
    def warm(self) -> bool:
        return self.source != "cold"


class Library:
    """An ordered collection of cells with matching indexes."""

    def __init__(self, name: str, cells: Iterable[LibraryCell]) -> None:
        self.name = name
        self.cells = list(cells)
        self._by_name: dict[str, LibraryCell] = {}
        self._by_pins: dict[int, list[LibraryCell]] = {}
        self._signatures: dict[tuple, list[LibraryCell]] = {}
        for cell in self.cells:
            if cell.name in self._by_name:
                raise ValueError(
                    f"duplicate cell names in library: {cell.name!r}"
                )
            # Matching tabulates cluster functions as dense truth tables;
            # a wider cell could never be matched, so refuse it up front.
            if cell.num_pins > tt.TT_MAX_VARS:
                raise ValueError(
                    f"cell {cell.name!r} has {cell.num_pins} pins; "
                    f"matching supports at most {tt.TT_MAX_VARS}"
                )
            self._by_name[cell.name] = cell
            pins = cell.num_pins
            self._by_pins.setdefault(pins, []).append(cell)
            key = (pins, tt.signature(cell.truth_table(), pins))
            self._signatures.setdefault(key, []).append(cell)
        self.annotated = False
        self._annotation_report: Optional[AnnotationReport] = None
        #: Filled in by :func:`repro.library.anncache.library_fingerprint`.
        self._fingerprint: Optional[str] = None

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[LibraryCell]:
        return iter(self.cells)

    def cell(self, name: str) -> LibraryCell:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(name) from None

    @property
    def max_pins(self) -> int:
        return max((c.num_pins for c in self.cells), default=0)

    # ------------------------------------------------------------------
    # Matching indexes
    # ------------------------------------------------------------------
    def by_pin_count(self, pins: int) -> list[LibraryCell]:
        return self._by_pins.get(pins, [])

    def candidates(self, table: int, pins: int) -> list[LibraryCell]:
        """Cells whose permutation-invariant signature matches ``table``."""
        return self._signatures.get((pins, tt.signature(table, pins)), [])

    # ------------------------------------------------------------------
    # Hazard annotation (async library initialization)
    # ------------------------------------------------------------------
    def annotate_hazards(
        self,
        exhaustive: bool = True,
        cache_dir: anncache.CacheDir = None,
        refresh: bool = False,
        tracer=None,
        metrics=None,
    ) -> AnnotationReport:
        """Analyze every cell's BFF for logic hazards (section 3.2.1).

        With a cache directory (explicit ``cache_dir`` or the
        ``REPRO_ANNOTATION_CACHE`` environment toggle) the per-cell
        analyses are replayed from disk when a valid payload exists and
        persisted after a cold pass, so the Table-2 initialization cost
        is paid once per library version.  ``refresh`` forces a cold
        re-analysis (and re-stores it).

        ``tracer`` records the pass as an ``annotate_library`` span
        whose ``source`` attribute distinguishes the cold analysis from
        disk/memory replays; ``metrics`` (a
        :class:`repro.obs.metrics.MetricsRegistry`) receives
        ``annotate.*`` gauges and the ``anncache.*`` I/O timings.
        """
        tracer = tracer or NULL_TRACER
        with tracer.span("annotate_library", library=self.name) as span:
            report = self._annotate_hazards(
                exhaustive, cache_dir, refresh, metrics
            )
            span.set_attr(
                source=report.source,
                cells=report.cells,
                hazardous=report.hazardous,
            )
        if metrics is not None:
            metrics.gauge("annotate.seconds").set(report.elapsed)
            metrics.gauge("annotate.source").set(report.source)
            metrics.gauge("annotate.cells").set(report.cells)
            metrics.gauge("annotate.hazardous").set(report.hazardous)
            # Counters (not gauges): the serving benchmark proves warm
            # requests skip annotation by asserting these stay flat.
            metrics.counter("library.annotate.calls").inc()
            metrics.counter(f"library.annotate.{report.source}").inc()
        return report

    def _annotate_hazards(
        self,
        exhaustive: bool,
        cache_dir: anncache.CacheDir,
        refresh: bool,
        metrics=None,
    ) -> AnnotationReport:
        if self.annotated and not refresh:
            if self._annotation_report is not None:
                return replace(
                    self._annotation_report, source="memory", elapsed=0.0
                )

        start = time.perf_counter()
        resolved = anncache.resolve_cache_dir(cache_dir)
        payload = None
        if resolved is not None and not refresh:
            payload = anncache.load_annotations(
                self, exhaustive, resolved, metrics=metrics
            )

        if payload is not None:
            for cell in self.cells:
                cell.analysis = payload.analyses[cell.name]
            source = "disk"
            cold_elapsed = payload.cold_elapsed
            cache_path = str(
                anncache.annotation_path(self, exhaustive, resolved)
            )
        else:
            for cell in self.cells:
                if refresh:
                    cell.analysis = None
                cell.annotate(exhaustive=exhaustive)
            source = "cold"
            cold_elapsed = None  # set to elapsed below
            cache_path = None
            if resolved is not None:
                cache_path = str(
                    anncache.store_annotations(
                        self,
                        exhaustive,
                        time.perf_counter() - start,
                        resolved,
                        metrics=metrics,
                    )
                )

        hazardous = sum(1 for cell in self.cells if cell.is_hazardous)
        elapsed = time.perf_counter() - start
        self.annotated = True
        report = AnnotationReport(
            library=self.name,
            elapsed=elapsed,
            cells=len(self.cells),
            hazardous=hazardous,
            source=source,
            cold_elapsed=elapsed if cold_elapsed is None else cold_elapsed,
            cache_path=cache_path,
        )
        self._annotation_report = report
        return report

    def hazardous_cells(self) -> list[LibraryCell]:
        if not self.annotated:
            self.annotate_hazards()
        return [c for c in self.cells if c.is_hazardous]

    def census(self) -> dict[str, object]:
        """Table-1 row: hazardous families, counts, fraction."""
        hazardous = self.hazardous_cells()
        families = sorted({c.family for c in hazardous})
        return {
            "library": self.name,
            "hazardous_families": families,
            "hazardous": len(hazardous),
            "total": len(self.cells),
            "percent": round(100.0 * len(hazardous) / len(self.cells))
            if self.cells
            else 0,
        }

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        name: str,
        spec: Sequence[tuple],
    ) -> "Library":
        """Build a library from ``(name, bff_text, area, delay[, family])``
        tuples; ``area=None`` derives the pulldown-transistor count."""
        cells = []
        for entry in spec:
            cell_name, text, area, delay = entry[:4]
            family = entry[4] if len(entry) > 4 else "logic"
            cells.append(
                LibraryCell.from_text(
                    cell_name, text, area=area, delay=delay, family=family
                )
            )
        return cls(name, cells)

    def __repr__(self) -> str:
        return f"Library({self.name!r}, {len(self.cells)} cells)"
