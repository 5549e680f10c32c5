"""Cross-process trace stitching: one batch run, one span tree.

The coordinator passes a ``SpanContext`` (same ``trace_id``, parent =
the job's ``batch_job`` span) to every worker; workers map under their
own same-id tracer and ship the span tree back in the result payload;
the engine grafts it under the finished ``batch_job`` span.  These
tests pin the acceptance contract: a processes-backend batch yields a
single well-formed ``repro-trace/v1`` tree with every worker span
re-parented under a coordinator span.
"""

from __future__ import annotations

import pytest

from repro.batch.jobs import execute_job
from repro.library import anncache
from repro.obs.tracer import Tracer

from .util import DEPTH, SMALL, make_jobs, run


def _stitched(tracer: Tracer):
    """(root, batch_job spans) after asserting the tree is well-formed."""
    assert tracer.validate() == []
    roots = tracer.roots()
    assert len(roots) == 1 and roots[0].name == "batch"
    return roots[0], [c for c in roots[0].children if c.name == "batch_job"]


@pytest.mark.parametrize("backend", ["processes", "serial"])
def test_batch_produces_one_stitched_tree(backend, ann_cache):
    tracer = Tracer()
    report, metrics = run(
        make_jobs(), backend, ann_cache, tracer=tracer, retries=0
    )
    assert report.counts()["ok"] == len(SMALL)
    root, batch_jobs = _stitched(tracer)
    assert len(batch_jobs) == len(SMALL)
    for job_span in batch_jobs:
        # The worker's whole mapping tree hangs under the job span.
        names = {child.name for child in job_span.children}
        assert "async_tmap" in names, names
        for span in job_span.walk():
            assert span.start >= root.start
            assert span.end is not None and span.end <= root.end


def test_span_count_is_coordinator_plus_grafted(ann_cache):
    tracer = Tracer()
    report, metrics = run(
        make_jobs(), "processes", ann_cache, tracer=tracer, retries=0
    )
    grafted = metrics.counter("batch.spans_grafted").value
    assert grafted > 0
    spans = tracer.all_spans()
    # 1 batch span + one batch_job per job + every grafted worker span.
    assert len(spans) == 1 + len(SMALL) + grafted
    ids = [span.span_id for span in spans]
    assert len(ids) == len(set(ids)), "span ids must be unique after graft"


def test_grafted_spans_share_the_run_trace_id(ann_cache):
    tracer = Tracer()
    run(make_jobs(designs=SMALL[:1]), "processes", ann_cache, tracer=tracer,
        retries=0)
    payload = tracer.to_dict()
    assert payload["trace_id"] == tracer.trace_id
    assert payload["schema"] == "repro-trace/v1"


def test_worker_result_carries_trace_only_when_asked(ann_cache):
    job = make_jobs(designs=SMALL[:1])[0]
    untraced = execute_job(job, cache_dir=ann_cache)
    assert "trace" not in untraced

    coordinator = Tracer()
    with coordinator.span("batch_job", job=job.job_id) as parent:
        context = coordinator.context(parent)
    traced = execute_job(job, cache_dir=ann_cache, trace_context=context)
    trace = traced["trace"]
    assert trace["trace_id"] == coordinator.trace_id
    assert trace["spans"], "worker must record its mapping spans"
    # Observation must not change the work: identical mapped netlist.
    assert traced["digest"] == untraced["digest"]


def test_trace_context_does_not_leak_into_the_journal(tmp_path, ann_cache):
    journal = tmp_path / "journal.jsonl"
    tracer = Tracer()
    run(
        make_jobs(designs=SMALL[:1]), "processes", ann_cache,
        tracer=tracer, retries=0, journal=str(journal),
    )
    text = journal.read_text()
    assert '"trace"' not in text, "span trees must not bloat the journal"


def test_untraced_batch_records_no_spans(ann_cache):
    report, metrics = run(make_jobs(designs=SMALL[:1]), "processes",
                          ann_cache, retries=0)
    assert report.counts()["ok"] == 1
    assert metrics.counter("batch.spans_grafted").value == 0
