"""Content-addressed cache of whole ``repro-api/v1`` map responses.

Mapping is deterministic given its inputs — the CI byte-identity gates
pin that — so the *entire* result of a map request can be memoized the
way SIS and cut-based LUT mappers memoize at the result level.  This
module keys a full :class:`~repro.api.schema.MapResponse` payload by a
SHA-256 digest over everything that can change the result:

* the **canonical network serialization** — the BLIF text of the
  resolved source netlist (so two spellings of the same design, say a
  catalog name and its inline BLIF, share a key);
* the **library digest** — :func:`repro.library.anncache.
  library_fingerprint`, which already covers the cache version, the
  package version, and every cell's (name, expression, pins, area,
  delay);
* the **normalized mapping options** — the result-affecting subset of
  the ``repro-api/v1`` option fields, canonicalized from
  :data:`~repro.api.schema.OPTION_FIELDS` defaults so two spellings of
  identical options (defaults omitted vs. written out) share a key.
  Knobs that cannot change the payload — ``deadline_seconds``,
  ``result_cache`` itself — stay out of the key.

Storage is two-tier:

* a bounded in-memory LRU (:class:`MemoryTier`) that serves a
  long-lived process — the ``repro serve`` daemon, a batch worker —
  in microseconds;
* a version-stamped on-disk store under
  ``<cache root>/results/v<RESULT_CACHE_VERSION>/<key>.json`` reusing
  the atomic per-PID-temp + ``os.replace`` + advisory-lock discipline
  of the annotation cache (:func:`repro.library.anncache.
  atomic_store_json`), bounded by entry count and total bytes with
  oldest-first eviction.

Every disk hit is **re-verified** before it is served: the stamped
cache version, the stored key, and the response's own SHA-256 BLIF
digest must all check out, or the entry is evicted and the mapping
recomputed — a corrupt or stale cache can cost time, never correctness.

Telemetry lands in the caller's
:class:`~repro.obs.metrics.MetricsRegistry` under ``cache.result.*``
(hits/misses/stores/evictions/verify failures, per-tier hit counters,
and a lookup-latency histogram) and the facade wraps lookups and
stores in ``result_cache`` spans, so warm-vs-cold is visible in
``repro obs top`` and the Prometheus exposition alike.

Enabling: requests opt in via the ``result_cache`` option field (the
CLI's ``--result-cache``/``--no-result-cache``); the
``REPRO_RESULT_CACHE`` environment toggle supplies a default location
the same way ``REPRO_ANNOTATION_CACHE`` does for annotations.  ``repro
cache`` reports and clears this store alongside the annotation cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from ..library.anncache import (
    DISABLED,
    CacheDir,
    _CacheDisabled,
    atomic_store_json,
    default_cache_root,
    library_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.schema import MapRequest
    from ..library.library import Library

#: Bump when the key derivation, the stored payload layout, or the
#: meaning of a stored field changes.  Version 2: the ``verify`` verdict
#: comes from the certifier, so no earlier verdict is replayed as one.
#: Version 3: map responses have no ``workers`` field, which a stored
#: version-2 response still carries.
RESULT_CACHE_VERSION = 3

#: Version stamp carried inside every on-disk entry.
RESULT_SCHEMA = "repro-result-cache/v1"

_ENV_TOGGLE = "REPRO_RESULT_CACHE"

#: Disk-tier bounds (both enforced after every store, oldest first).
DEFAULT_MAX_ENTRIES = 256
DEFAULT_MAX_BYTES = 64 * 1024 * 1024
#: In-memory LRU bound (responses, not bytes — payloads are small).
DEFAULT_MEMORY_ENTRIES = 64

#: The ``repro-api/v1`` option fields that can change a map response.
#: A deadline only selects *whether* the full result is produced
#: (fallback responses are never stored), and ``result_cache`` is the
#: toggle itself.
RESULT_KEY_FIELDS = (
    "mode",
    "max_depth",
    "max_inputs",
    "objective",
    "filter_mode",
    "dont_cares",
    "verify",
    "explain",
)


def resolve_result_cache_dir(cache_dir: CacheDir = None) -> Optional[Path]:
    """Resolve the disk tier's location (``None`` = no disk tier).

    Mirrors :func:`repro.library.anncache.resolve_cache_dir` with its
    own ``REPRO_RESULT_CACHE`` toggle: :data:`~repro.library.anncache.
    DISABLED` always wins, an explicit path is used as-is, and ``None``
    consults the environment (unset/falsy keeps runs hermetic).
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


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def normalized_options(values: dict) -> dict:
    """The canonical, fully-spelled form of the result-affecting options.

    Accepts any mapping of option names to values (missing names take
    the ``repro-api/v1`` defaults, unknown or result-neutral names are
    dropped) and returns a dict with exactly the
    :data:`RESULT_KEY_FIELDS` keys in declaration order — so two
    spellings of identical options produce one canonical form and hence
    one key.
    """
    import dataclasses

    from ..api.schema import MapRequest, OPTION_FIELDS

    defaults = {f.name: f.default for f in OPTION_FIELDS}
    for field in dataclasses.fields(MapRequest):
        defaults.setdefault(field.name, field.default)
    return {
        name: values.get(name, defaults.get(name))
        for name in RESULT_KEY_FIELDS
    }


def result_cache_key(
    network_blif: str, library: "Library", options: dict
) -> str:
    """SHA-256 key of one (network, library, options) mapping triple."""
    canonical = normalized_options(options)
    hasher = hashlib.sha256()
    hasher.update(f"result-cache-v{RESULT_CACHE_VERSION}".encode())
    hasher.update(b"|network|")
    hasher.update(network_blif.encode("utf-8"))
    hasher.update(b"|library|")
    hasher.update(library_fingerprint(library).encode())
    hasher.update(b"|options|")
    hasher.update(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    )
    return hasher.hexdigest()


def request_cache_key(
    request: "MapRequest", network_blif: str, library: "Library"
) -> str:
    """The cache key a ``repro-api/v1`` map request denotes."""
    values = {name: getattr(request, name) for name in RESULT_KEY_FIELDS}
    return result_cache_key(network_blif, library, values)


# ----------------------------------------------------------------------
# Verification (shared by both tiers)
# ----------------------------------------------------------------------
def _payload_ok(entry: dict, key: str) -> bool:
    """Is one stored entry intact, current, and addressed by ``key``?"""
    if not isinstance(entry, dict):
        return False
    if entry.get("schema") != RESULT_SCHEMA:
        return False
    if entry.get("cache_version") != RESULT_CACHE_VERSION:
        return False
    if entry.get("key") != key:
        return False
    response = entry.get("response")
    if not isinstance(response, dict):
        return False
    blif = response.get("blif")
    digest = response.get("digest")
    if not isinstance(blif, str) or not isinstance(digest, str):
        return False
    return hashlib.sha256(blif.encode("utf-8")).hexdigest() == digest


# ----------------------------------------------------------------------
# Tier 1: bounded in-memory LRU
# ----------------------------------------------------------------------
class MemoryTier:
    """A thread-safe, entry-bounded LRU of response payloads."""

    def __init__(self, max_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.evictions = 0

    def get(self, key: str) -> Optional[dict]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry

    def put(self, key: str, entry: dict) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def evict(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide memory tier (the daemon's and batch workers' warm
#: path).  Tests size it down or :func:`clear_result_cache` it.
MEMORY = MemoryTier()


# ----------------------------------------------------------------------
# Tier 2: version-stamped on-disk store
# ----------------------------------------------------------------------
def results_root(cache_dir: Path) -> Path:
    return Path(cache_dir) / "results" / f"v{RESULT_CACHE_VERSION}"


def result_path(cache_dir: Path, key: str) -> Path:
    return results_root(cache_dir) / f"{key}.json"


def result_entries(cache_dir: CacheDir = None) -> list[Path]:
    """Every result payload under the (resolved or default) cache root."""
    if isinstance(cache_dir, _CacheDisabled):
        return []
    root = resolve_result_cache_dir(cache_dir) or default_cache_root()
    base = Path(root) / "results"
    if not base.exists():
        return []
    return sorted(base.glob("v*/*.json"))


def clear_result_cache(cache_dir: CacheDir = None) -> int:
    """Drop the memory tier and delete all disk entries; returns count."""
    MEMORY.clear()
    removed = 0
    for path in result_entries(cache_dir):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def _evict_file(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _enforce_bounds(
    cache_dir: Path,
    max_entries: int,
    max_bytes: int,
    metrics=None,
) -> int:
    """Prune oldest entries until both disk bounds hold; returns count."""
    root = results_root(cache_dir)
    if not root.exists():
        return 0
    entries = []
    total = 0
    for path in root.glob("*.json"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
        total += stat.st_size
    entries.sort()
    evicted = 0
    while entries and (len(entries) > max_entries or total > max_bytes):
        _, size, path = entries.pop(0)
        _evict_file(path)
        total -= size
        evicted += 1
    if evicted and metrics is not None:
        metrics.counter("cache.result.evictions").inc(evicted)
    return evicted


# ----------------------------------------------------------------------
# The two-tier cache facade
# ----------------------------------------------------------------------
class ResultCache:
    """One lookup/store surface over the memory and disk tiers.

    ``cache_dir`` is the *annotation-cache-style* location argument —
    ``None`` consults ``REPRO_RESULT_CACHE``, a path is used directly,
    :data:`~repro.library.anncache.DISABLED` turns the disk tier off.
    The memory tier is always active (it is what makes a warm daemon
    warm); :func:`clear_result_cache` empties it for hermetic tests.
    """

    def __init__(
        self,
        cache_dir: CacheDir = None,
        memory: Optional[MemoryTier] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.disk_dir = resolve_result_cache_dir(cache_dir)
        self.memory = memory if memory is not None else MEMORY
        self.max_entries = max_entries
        self.max_bytes = max_bytes

    # -- lookup -----------------------------------------------------
    def lookup(self, key: str, metrics=None) -> Optional[tuple[str, dict]]:
        """Return ``(tier, response_payload)`` or ``None`` on a miss.

        Both tiers re-verify before serving: a mismatched version
        stamp, a foreign key, or a response whose BLIF no longer hashes
        to its recorded digest is evicted and reported as a miss —
        corrupt entries are never served.
        """
        started = time.perf_counter()
        tier, payload = self._lookup(key, metrics)
        if metrics is not None:
            metrics.counter(
                "cache.result.hits" if payload is not None
                else "cache.result.misses"
            ).inc()
            if payload is not None:
                metrics.counter(f"cache.result.hits.{tier}").inc()
            metrics.histogram("cache.result.lookup_seconds").observe(
                time.perf_counter() - started
            )
        if payload is None:
            return None
        return tier, payload

    def _lookup(self, key: str, metrics) -> tuple[str, Optional[dict]]:
        entry = self.memory.get(key)
        if entry is not None:
            if _payload_ok(entry, key):
                return "memory", entry["response"]
            # A torn in-memory entry can only come from deliberate
            # tampering (tests) but the discipline is uniform: evict,
            # never serve.
            self.memory.evict(key)
            self._count_verify_failure(metrics)
        if self.disk_dir is None:
            return "none", None
        path = result_path(self.disk_dir, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return "none", None
        except (OSError, ValueError):
            entry = None
        if entry is None or not _payload_ok(entry, key):
            # Corrupt, truncated, stale, or mis-keyed: evict so the
            # recomputed result can be stored cleanly.
            _evict_file(path)
            self._count_verify_failure(metrics)
            if metrics is not None:
                metrics.counter("cache.result.evictions").inc()
            return "none", None
        self.memory.put(key, entry)
        return "disk", entry["response"]

    @staticmethod
    def _count_verify_failure(metrics) -> None:
        if metrics is not None:
            metrics.counter("cache.result.verify_failures").inc()

    # -- store ------------------------------------------------------
    def store(
        self,
        key: str,
        response_payload: dict,
        *,
        library: Optional["Library"] = None,
        design: Optional[str] = None,
        metrics=None,
    ) -> Optional[Path]:
        """Publish one response payload to both tiers.

        Returns the disk path (or ``None`` when there is no disk tier).
        The entry is self-describing — schema, cache version, key,
        library fingerprint, creation time — so a later lookup (or a
        human) can audit it without context.
        """
        entry = {
            "schema": RESULT_SCHEMA,
            "cache_version": RESULT_CACHE_VERSION,
            "key": key,
            "created": time.time(),
            "library": library.name if library is not None else None,
            "library_fingerprint": (
                library_fingerprint(library) if library is not None else None
            ),
            "design": design,
            "response": response_payload,
        }
        self.memory.put(key, entry)
        if metrics is not None:
            metrics.counter("cache.result.stores").inc()
        if self.disk_dir is None:
            return None
        path = result_path(self.disk_dir, key)
        atomic_store_json(path, entry)
        _enforce_bounds(
            self.disk_dir, self.max_entries, self.max_bytes, metrics
        )
        return path


__all__ = [
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MEMORY_ENTRIES",
    "DISABLED",
    "MEMORY",
    "MemoryTier",
    "RESULT_CACHE_VERSION",
    "RESULT_KEY_FIELDS",
    "RESULT_SCHEMA",
    "ResultCache",
    "clear_result_cache",
    "normalized_options",
    "request_cache_key",
    "resolve_result_cache_dir",
    "result_cache_key",
    "result_entries",
    "result_path",
]
