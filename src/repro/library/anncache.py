"""Persistent on-disk cache of library hazard annotations.

Table 2 measures the one-time cost of ``augment-library-with-hazard-
info``; in a service-style session that maps many circuits against the
same libraries the cost should be paid once per *library version*, not
once per process.  This module stores each library's per-cell
:class:`~repro.hazards.analyzer.HazardAnalysis` objects in a
version-stamped cache directory and replays them on the next load.

Layout::

    <cache root>/annotations/v<CACHE_VERSION>/<lib>-<x|r>-<fingerprint>.json

Payloads are plain JSON holding only data (cube bit-vectors, record
lists, verdict tuples) — never pickled objects — so loading a cache
file from a shared or otherwise untrusted directory can at worst
produce a validation miss, not code execution.  The fingerprint is a
SHA-256 over the cache version, the package version, and every cell's
(name, BFF text, pin order, area, delay), so any change to the library
or to the analysis code's on-disk contract misses cleanly.  Payloads
carry the fingerprint again and are validated on read; corrupt,
truncated, or stale files are removed and silently rebuilt — the cache
can never change results, only timing.

Writes are multi-process safe: each writer renders to a per-PID temp
file and atomically renames it over the payload path while holding an
advisory ``fcntl`` lock on ``<payload>.lock``, so concurrent batch
workers annotating the same library can never publish a torn JSON
payload (see :func:`payload_lock`).

Enabling the cache:

* pass ``cache_dir`` to :meth:`repro.library.library.Library.annotate_hazards`;
* or set ``REPRO_ANNOTATION_CACHE`` (``1``/``on`` for the default
  location, any other value is taken as a directory path);
* the CLI enables it by default (``--no-cache`` / ``--cache-dir``).

Passing the :data:`DISABLED` sentinel as ``cache_dir`` turns the cache
off unconditionally — unlike ``None`` it does *not* fall back to the
environment toggle, which is how the CLI's ``--no-cache`` stays
hermetic under ``REPRO_ANNOTATION_CACHE=1``.

The default root honours ``REPRO_CACHE_DIR``, then ``XDG_CACHE_HOME``,
then ``~/.cache/repro-tmap``.  ``repro cache --clear`` (or
:func:`clear_annotation_cache`) empties it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Union

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..boolean.cover import Cover
from ..boolean.cube import Cube
from ..boolean.paths import LabeledLiteral, LabeledProduct, LabeledSop
from ..hazards.oracle import TransitionKind, TransitionVerdict
from ..hazards.types import (
    MicDynamicHazard,
    SicDynamicHazard,
    Static0Hazard,
    Static1Hazard,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hazards.analyzer import HazardAnalysis
    from .library import Library

#: Bump when the payload layout or the analysis semantics change.
#: v2: JSON data-only payloads (v1 was pickled objects).
CACHE_VERSION = 2

_ENV_TOGGLE = "REPRO_ANNOTATION_CACHE"
_ENV_ROOT = "REPRO_CACHE_DIR"


class _CacheDisabled:
    """Sentinel type: cache explicitly off, environment toggle ignored."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "anncache.DISABLED"


#: Pass as ``cache_dir`` to force the cache off regardless of
#: ``REPRO_ANNOTATION_CACHE`` (the CLI's ``--no-cache``).
DISABLED = _CacheDisabled()

CacheDir = Union[str, os.PathLike, None, _CacheDisabled]


def default_cache_root() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` > XDG > ``~/.cache/repro-tmap``."""
    root = os.environ.get(_ENV_ROOT)
    if root:
        return Path(root)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-tmap"


def resolve_cache_dir(cache_dir: CacheDir = None) -> Optional[Path]:
    """Resolve a caller-supplied cache location to a directory or None.

    :data:`DISABLED` always disables the cache.  ``None`` consults
    ``REPRO_ANNOTATION_CACHE``: unset/falsy disables the cache (keeping
    library loads hermetic by default); ``1``/``on``/``yes``/``auto``
    selects the default root; anything else is a path.
    """
    if isinstance(cache_dir, _CacheDisabled):
        return None
    if cache_dir is not None:
        return Path(cache_dir)
    toggle = os.environ.get(_ENV_TOGGLE, "").strip()
    if not toggle or toggle.lower() in ("0", "off", "no", "false"):
        return None
    if toggle.lower() in ("1", "on", "yes", "true", "auto"):
        return default_cache_root()
    return Path(toggle)


def library_fingerprint(library: "Library") -> str:
    """Content hash of everything the annotation result depends on.

    A library's cells are fixed once it is built, so the hash is
    computed on the first call and kept on the library.
    """
    if library._fingerprint is None:
        from .. import __version__

        hasher = hashlib.sha256()
        hasher.update(f"v{CACHE_VERSION}|{__version__}|{library.name}".encode())
        for cell in library.cells:
            hasher.update(
                f"|{cell.name}|{cell.expression.to_string()}"
                f"|{','.join(cell.pins)}|{cell.area}|{cell.delay}".encode()
            )
        library._fingerprint = hasher.hexdigest()
    return library._fingerprint


def annotation_path(
    library: "Library", exhaustive: bool, cache_dir: Path
) -> Path:
    """The payload file for one (library, exhaustive) pair."""
    fingerprint = library_fingerprint(library)
    flavour = "x" if exhaustive else "r"
    return (
        Path(cache_dir)
        / "annotations"
        / f"v{CACHE_VERSION}"
        / f"{library.name}-{flavour}-{fingerprint[:16]}.json"
    )


@dataclass
class AnnotationPayload:
    """What one cache file holds."""

    fingerprint: str
    library: str
    exhaustive: bool
    cold_elapsed: float
    analyses: dict[str, "HazardAnalysis"]
    created: float


# ----------------------------------------------------------------------
# Data-only (de)serialization of HazardAnalysis
# ----------------------------------------------------------------------
def _analysis_to_data(analysis: "HazardAnalysis") -> dict:
    def cube(c: Cube) -> list[int]:
        return [c.used, c.phase]

    def cover(cov: Cover) -> list[list[int]]:
        return [cube(c) for c in cov.cubes]

    def pulse(record) -> list:
        return [record.var, cube(record.residual), cover(record.condition)]

    return {
        "names": analysis.names,
        "plain": cover(analysis.plain),
        "lsop": [
            [[lit.name, lit.path, lit.positive] for lit in product.literals]
            for product in analysis.lsop.products
        ],
        "static1": [cube(h.transition) for h in analysis.static1],
        "static0": [pulse(h) for h in analysis.static0],
        "mic_dynamic": [[h.start, h.end] for h in analysis.mic_dynamic],
        "sic_dynamic": [pulse(h) for h in analysis.sic_dynamic],
        "verdicts": None
        if analysis.verdicts is None
        else [
            [v.start, v.end, v.kind.value, v.function_hazard, v.logic_hazard]
            for v in analysis.verdicts
        ],
    }


def _analysis_from_data(data: dict) -> "HazardAnalysis":
    from ..hazards.analyzer import HazardAnalysis

    names = [str(n) for n in data["names"]]
    nvars = len(names)

    def cube(pair) -> Cube:
        used, phase = pair
        return Cube(int(used), int(phase), nvars)

    def cover(pairs) -> Cover:
        return Cover([cube(p) for p in pairs], nvars)

    lsop = LabeledSop(
        [
            LabeledProduct(
                tuple(
                    LabeledLiteral(str(name), int(path), bool(positive))
                    for name, path, positive in product
                )
            )
            for product in data["lsop"]
        ],
        names,
    )
    verdicts = data["verdicts"]
    return HazardAnalysis(
        names=names,
        plain=cover(data["plain"]),
        lsop=lsop,
        static1=[Static1Hazard(cube(c)) for c in data["static1"]],
        static0=[
            Static0Hazard(int(var), cube(residual), cover(condition))
            for var, residual, condition in data["static0"]
        ],
        mic_dynamic=[
            MicDynamicHazard(int(start), int(end), nvars)
            for start, end in data["mic_dynamic"]
        ],
        sic_dynamic=[
            SicDynamicHazard(int(var), cube(residual), cover(condition))
            for var, residual, condition in data["sic_dynamic"]
        ],
        verdicts=None
        if verdicts is None
        else [
            TransitionVerdict(
                int(start), int(end), TransitionKind(kind), bool(fh), bool(lh)
            )
            for start, end, kind, fh, lh in verdicts
        ],
    )


def load_annotations(
    library: "Library", exhaustive: bool, cache_dir: Path, metrics=None
) -> Optional[AnnotationPayload]:
    """Read and validate a payload; corrupt or stale files are removed.

    Returns ``None`` on any miss — the caller rebuilds and re-stores, so
    a damaged cache silently repairs itself.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) receives
    ``anncache.hits`` / ``anncache.misses`` counters and an
    ``anncache.load_seconds`` histogram — the cold-vs-warm signal the
    Table-2 trajectory in ``BENCH_mapping.json`` tracks.
    """
    start = time.perf_counter()
    payload = _load_annotations(library, exhaustive, cache_dir)
    if metrics is not None:
        metrics.counter("anncache.hits" if payload else "anncache.misses").inc()
        metrics.histogram("anncache.load_seconds").observe(
            time.perf_counter() - start
        )
    return payload


def _load_annotations(
    library: "Library", exhaustive: bool, cache_dir: Path
) -> Optional[AnnotationPayload]:
    path = annotation_path(library, exhaustive, cache_dir)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("unexpected payload type")
        if data.get("cache_version") != CACHE_VERSION:
            raise ValueError("cache version mismatch")
        if data.get("fingerprint") != library_fingerprint(library):
            raise ValueError("stale fingerprint")
        if bool(data.get("exhaustive")) != exhaustive:
            raise ValueError("annotation flavour mismatch")
        raw = data["analyses"]
        missing = {c.name for c in library.cells} - set(raw)
        if missing:
            raise ValueError(f"cells missing from payload: {sorted(missing)}")
        analyses = {name: _analysis_from_data(entry) for name, entry in raw.items()}
        payload = AnnotationPayload(
            fingerprint=str(data["fingerprint"]),
            library=str(data["library"]),
            exhaustive=exhaustive,
            cold_elapsed=float(data["cold_elapsed"]),
            analyses=analyses,
            created=float(data["created"]),
        )
    except Exception:
        # Corrupt/stale/truncated: drop the file and fall back to cold.
        try:
            path.unlink()
        except OSError:
            pass
        return None
    return payload


def store_annotations(
    library: "Library",
    exhaustive: bool,
    cold_elapsed: float,
    cache_dir: Path,
    metrics=None,
) -> Path:
    """Persist the library's current annotations (atomic replace).

    ``metrics`` receives an ``anncache.store_seconds`` histogram.
    """
    start = time.perf_counter()
    path = _store_annotations(library, exhaustive, cold_elapsed, cache_dir)
    if metrics is not None:
        metrics.histogram("anncache.store_seconds").observe(
            time.perf_counter() - start
        )
    return path


@contextmanager
def payload_lock(path: Path) -> Iterator[None]:
    """Advisory exclusive lock for one payload file (best-effort).

    Writers of the same payload serialize on ``<payload>.lock`` so two
    batch processes annotating the same library never interleave their
    write-temp-then-rename sequences; readers never lock (the rename is
    atomic, so a reader sees either the old payload or the new one,
    never a torn mix).  On platforms without ``fcntl`` the lock degrades
    to a no-op — per-PID temp names plus ``os.replace`` still guarantee
    the payload itself is never torn, the lock only removes duplicate
    concurrent cold passes.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "a+") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def atomic_store_json(path: Path, data: dict) -> Path:
    """Atomically publish one JSON payload file (the shared store step).

    Write a per-PID temp file, then rename over the final path under an
    advisory lock.  Readers never see a partial payload (rename is
    atomic) and concurrent writers never interleave (the lock serializes
    them) — safe for multi-process batch runs.  Both on-disk cache tiers
    (this module's annotation payloads and the result cache in
    :mod:`repro.cache.resultcache`) publish through this one helper so
    they share a single write/lock discipline.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp-{os.getpid()}")
    with payload_lock(path):
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    return path


def _store_annotations(
    library: "Library", exhaustive: bool, cold_elapsed: float, cache_dir: Path
) -> Path:
    path = annotation_path(library, exhaustive, cache_dir)
    data = {
        "cache_version": CACHE_VERSION,
        "fingerprint": library_fingerprint(library),
        "library": library.name,
        "exhaustive": exhaustive,
        "cold_elapsed": cold_elapsed,
        "created": time.time(),
        "analyses": {
            cell.name: _analysis_to_data(cell.analysis)
            for cell in library.cells
            if cell.analysis is not None
        },
    }
    return atomic_store_json(path, data)


def cache_entries(cache_dir: CacheDir = None) -> list[Path]:
    """Every payload file under the (resolved or default) cache root.

    Includes legacy v1 ``.pkl`` payloads so ``clear_annotation_cache``
    sweeps them away too.
    """
    root = resolve_cache_dir(cache_dir) or default_cache_root()
    base = Path(root) / "annotations"
    if not base.exists():
        return []
    return sorted([*base.glob("v*/*.json"), *base.glob("v*/*.pkl")])


def clear_annotation_cache(cache_dir: CacheDir = None) -> int:
    """Delete all cached annotation payloads; returns the removal count."""
    removed = 0
    for path in cache_entries(cache_dir):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
