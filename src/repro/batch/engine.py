"""The fault-tolerant batch mapping engine behind ``repro batch``.

One coordinator loop runs :class:`~repro.batch.jobs.BatchJob` specs
on one of two backends (:data:`BACKEND_NAMES`): ``serial`` runs each
job inline on the coordinator thread, the deterministic reference;
``processes`` runs them on a fork-context
:class:`~concurrent.futures.ProcessPoolExecutor` the engine owns, for
parallelism and crash isolation.  Job payloads and results are plain
picklable data on both, so the backend never changes a result.  The
loop wraps every job in the robustness layer the catalog-scale
workloads need:

* **deadlines** — each job runs under a cooperative
  :class:`~repro.deadline.Deadline`; a job past its budget degrades to
  the trivial depth-1 cover inside the worker (recorded as
  ``fallback="trivial-cover"``), and on the process backend a hard
  ``4× deadline`` backstop kills and respawns the pool for workers that
  never reach a checkpoint;
* **retry with exponential backoff** — transient failures (injected
  faults, corrupted result digests, broken pools) are retried up to
  ``retries`` times, waiting ``backoff · 2^(attempt-1)`` between tries;
* **crash isolation** — a dead worker process breaks the pool; the
  engine respawns it and re-runs the in-flight jobs *one at a time* so
  the poison job identifies itself by crashing alone, fails on its own
  budget, and never takes a neighbour down with it;
* **digest verification** — every worker result is re-hashed on the
  coordinator; a mismatch is a transient corrupt-result failure;
* **checkpoint journal** — every settled job is appended (and fsynced)
  to a ``repro-batch/v1`` JSONL journal; ``resume=True`` replays it and
  skips jobs whose spec digest, status, and artifact digest all verify.

Results are returned in job-spec order regardless of backend, worker
count, retries, or completion order, and each successful result's BLIF
text is byte-identical to a sequential
:func:`~repro.mapping.mapper.map_network` run of the same spec.

Observability: the run publishes ``batch.*`` counters/histograms into
the supplied :class:`~repro.obs.metrics.MetricsRegistry` and records a
``batch`` span with one child span per job attempt; per-job explain
logs (``BatchJob.explain``) land next to the netlist artifacts.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from ..deadline import DeadlineExceeded
from ..library import anncache
from ..obs.export import BENCH_SCHEMA, bench_row
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, SpanContext, Tracer
from ..testing.faults import FaultInjected, FaultPlan
from .jobs import BatchJob, execute_job, text_digest
from .journal import BATCH_SCHEMA, JournalWriter, file_digest, read_journal

#: ``BatchConfig.backend`` values: jobs run inline, or on a process pool.
BACKEND_NAMES = ("serial", "processes")
#: Multiplier on the cooperative deadline giving the process backend's
#: hard kill-and-respawn backstop.
HARD_TIMEOUT_FACTOR = 4.0
#: Coordinator poll tick while waiting on in-flight futures.
_TICK = 0.05


class BatchConfigError(ValueError):
    """The batch run was configured inconsistently."""


@dataclass
class BatchConfig:
    """Engine knobs (everything the CLI's ``repro batch`` flags map to)."""

    backend: str = "serial"
    workers: int = 1
    deadline: Optional[float] = None
    retries: int = 0
    backoff: float = 0.5
    cache_dir: anncache.CacheDir = None
    journal: Optional[Union[str, Path]] = None
    output_dir: Optional[Union[str, Path]] = None
    resume: bool = False
    fault_plan: Optional[FaultPlan] = None
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    progress: Optional[Callable[[dict], None]] = None
    #: Serve byte-identical stored responses from the content-addressed
    #: result cache (a deployment knob like ``cache_dir`` — job specs
    #: and resume identity never see it).
    result_cache: bool = False

    def resolved_workers(self) -> int:
        """Jobs that run at once: one on ``serial``, ``workers`` on
        ``processes`` (0 = one per CPU)."""
        import os

        if self.backend == "serial":
            return 1
        if self.workers == 0:
            return os.cpu_count() or 1
        return max(1, self.workers)


@dataclass
class _JobState:
    """Coordinator-side bookkeeping for one job."""

    job: BatchJob
    index: int
    attempt: int = 0
    next_eligible: float = 0.0
    backoffs: list[float] = field(default_factory=list)
    submitted_at: float = 0.0
    span: Optional[object] = None
    record: Optional[dict] = None


@dataclass
class BatchReport:
    """What a batch run produced, in job-spec order."""

    results: list[dict]
    backend: str
    workers: int
    elapsed: float
    skipped: int = 0
    pool_breaks: int = 0
    journal: Optional[Path] = None
    output_dir: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return all(
            r.get("status") == "ok"
            and r.get("verify", {}).get("ok", True)
            for r in self.results
        )

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.results:
            status = str(record.get("status"))
            counts[status] = counts.get(status, 0) + 1
        counts["fallback"] = sum(
            1 for r in self.results if r.get("fallback")
        )
        counts["skipped"] = self.skipped
        return counts

    def to_bench_snapshot(self, max_depth: int = 5) -> dict:
        """A ``repro-bench-mapping/v1`` view of a single-library run.

        This is how the committed ``BENCH_mapping.json`` baseline is
        made, and what ``benchmarks/check_regression.py`` gates a fresh
        run against; only valid when every job targets the same library
        with the sync/async default flow.  Each row is
        :func:`~repro.obs.export.bench_row` of its job; the annotation
        the jobs paid is reported once, as ``annotate_seconds``.
        """
        libraries = {r["job_id"].split("@", 1)[1] for r in self.results}
        if len(libraries) != 1:
            raise BatchConfigError(
                "bench snapshots need a single-library batch; got "
                f"{sorted(libraries)}"
            )
        rows = {}
        annotate = 0.0
        for record in self.results:
            if record.get("status") != "ok":
                continue
            rows[record["job_id"].split("@", 1)[0]] = bench_row(record)
            annotate = max(annotate, record.get("annotate_seconds", 0.0))
        return {
            "schema": BENCH_SCHEMA,
            "library": next(iter(libraries)),
            "max_depth": max_depth,
            "annotate_seconds": round(annotate, 4),
            "annotate_source": "batch",
            "batch_backend": self.backend,
            "batch_workers": self.workers,
            "benchmarks": rows,
        }


class _Transient(Exception):
    """Internal: a retryable attempt failure with a reason tag."""

    def __init__(self, reason: str, status: str = "failed") -> None:
        super().__init__(reason)
        self.reason = reason
        self.status = status


def run_batch(
    jobs: Sequence[BatchJob], config: Optional[BatchConfig] = None
) -> BatchReport:
    """Run a catalog of jobs through the fault-tolerance layer."""
    config = config or BatchConfig()
    engine = _Engine(list(jobs), config)
    return engine.run()


class _Engine:
    def __init__(self, jobs: list[BatchJob], config: BatchConfig) -> None:
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise BatchConfigError(f"duplicate job ids: {dupes}")
        self.jobs = jobs
        self.config = config
        self.metrics = (
            config.metrics if config.metrics is not None else MetricsRegistry()
        )
        self.tracer = config.tracer or NULL_TRACER
        if config.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {config.backend!r}; one of {BACKEND_NAMES}"
            )
        self.workers = config.resolved_workers()
        #: The ``processes`` backend's pool, up while :meth:`run` runs.
        self.pool: Optional[ProcessPoolExecutor] = None
        self.output_dir = (
            Path(config.output_dir) if config.output_dir else None
        )
        journal = config.journal
        if journal is None and self.output_dir is not None:
            journal = self.output_dir / "batch_journal.jsonl"
        self.journal_path = Path(journal) if journal else None
        self.writer: Optional[JournalWriter] = None
        self.states = [
            _JobState(job=job, index=index) for index, job in enumerate(jobs)
        ]
        self.records: dict[int, dict] = {}
        self.pending: deque[_JobState] = deque()
        self.skipped = 0
        self.pool_breaks = 0
        self._span = None

    # -- journal / resume ------------------------------------------------
    def _artifact_ok(self, job: BatchJob, record: dict) -> bool:
        if self.output_dir is None or not record.get("artifact"):
            return True
        path = self.output_dir / record["artifact"]
        return path.exists() and file_digest(path) == record.get("digest")

    def _resume_skips(self) -> None:
        if not (
            self.config.resume
            and self.journal_path is not None
            and self.journal_path.exists()
        ):
            return
        _, previous = read_journal(self.journal_path)
        for state in self.states:
            record = previous.get(state.job.job_id)
            if (
                record is not None
                and record.get("status") == "ok"
                and record.get("spec") == state.job.spec_digest()
                and self._artifact_ok(state.job, record)
            ):
                self.records[state.index] = dict(record, skipped=True)
                self.skipped += 1
                self.metrics.counter("batch.jobs_skipped").inc()
                self._progress(self.records[state.index])

    def _open_journal(self) -> None:
        if self.journal_path is None:
            return
        self.writer = JournalWriter(self.journal_path)
        fresh = not (self.config.resume and self.journal_path.exists())
        if fresh:
            self.journal_path.unlink(missing_ok=True)
            self.writer.write_header(
                jobs={job.job_id: job.spec_digest() for job in self.jobs},
                config={
                    "backend": self.config.backend,
                    "workers": self.workers,
                    "deadline": self.config.deadline,
                    "retries": self.config.retries,
                    "backoff": self.config.backoff,
                },
            )
        else:
            self.writer.repair_tail()
            self.writer.write_resume(
                skipped=self.skipped, rerun=len(self.jobs) - self.skipped
            )

    # -- submission ------------------------------------------------------
    def _submit(self, state: _JobState, retry: bool = True) -> Future:
        if retry:
            state.attempt += 1
        state.submitted_at = time.monotonic()
        state.span = self.tracer.start_span(
            "batch_job",
            parent=self._span,
            job=state.job.job_id,
            attempt=state.attempt,
        )
        # With tracing on, hand the worker this run's trace_id and the
        # batch_job span as remote parent; the worker's span tree comes
        # back in the result payload and is grafted under that span.
        trace_context = (
            SpanContext(self.tracer.trace_id, state.span.span_id)
            if self.tracer.trace_id is not None
            else None
        )
        kwargs = dict(
            attempt=state.attempt,
            deadline_seconds=self.config.deadline,
            cache_dir=self.config.cache_dir,
            fault_plan=self.config.fault_plan,
            trace_context=trace_context,
            result_cache=self.config.result_cache,
        )
        if self.pool is not None:
            # A process-pool worker cannot share the run's in-memory
            # registry, so it ships a snapshot of its own, merged on
            # settlement.
            return self.pool.submit(execute_job, state.job, **kwargs)
        # Inline, the job records into the run's registry directly, and
        # its failure is classified like a pool worker's; an interrupt
        # ends the run.
        future: Future = Future()
        try:
            future.set_result(
                execute_job(state.job, metrics=self.metrics, **kwargs)
            )
        except Exception as exc:  # noqa: BLE001 - mirrored into the future
            future.set_exception(exc)
        return future

    def _start_pool(self) -> None:
        """Bring up a fresh process pool.  A previous pool's live
        workers are killed, so a hung one cannot outlive its job (a
        broken pool's are dead already)."""
        if self.pool is not None:
            # ``shutdown`` forgets the pool's processes: take them first.
            processes = list((self.pool._processes or {}).values())
            self.pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                if process.is_alive():
                    process.terminate()
        # fork is the fast path (workers inherit synthesized benchmarks
        # and loaded libraries); fall back to the platform default where
        # fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        self.pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(
                "fork" if "fork" in methods else None
            ),
        )

    def _finish_span(self, state: _JobState, status: str) -> None:
        if state.span is not None:
            state.span.set_attr(status=status)
            self.tracer.finish_span(state.span)
            state.span = None

    def _graft_worker_trace(self, span, trace: Optional[dict]) -> None:
        """Re-parent a worker's shipped span tree under its job span."""
        if trace is None or span is None or self.tracer.trace_id is None:
            return
        grafted = self.tracer.graft(trace, parent=span)
        self.metrics.counter("batch.spans_grafted").inc(
            sum(1 for root in grafted for _ in root.walk())
        )

    # -- settlement ------------------------------------------------------
    def _settle_success(self, state: _JobState, payload: dict) -> None:
        record = dict(payload)
        blif = record.pop("blif", "")
        explain = record.pop("explain", None)
        trace = record.pop("trace", None)
        worker_metrics = record.pop("metrics", None)
        if worker_metrics is not None:
            self.metrics.merge(worker_metrics)
        record["attempts"] = state.attempt
        record["backoff_seconds"] = list(state.backoffs)
        if record.get("fallback"):
            self.metrics.counter("batch.jobs_fallback").inc()
            self.metrics.counter("batch.deadline_hits").inc()
        if self.output_dir is not None:
            self.output_dir.mkdir(parents=True, exist_ok=True)
            artifact = state.job.artifact_name()
            (self.output_dir / artifact).write_text(blif)
            record["artifact"] = artifact
            if explain is not None:
                explain_name = artifact.replace(".blif", "_explain.json")
                (self.output_dir / explain_name).write_text(
                    json.dumps(explain, indent=2) + "\n"
                )
                record["explain_artifact"] = explain_name
        record["blif"] = blif  # in-memory consumers get the full text
        if explain is not None:
            record["explain"] = explain
        self.records[state.index] = record
        self.metrics.counter("batch.jobs_ok").inc()
        self.metrics.histogram("batch.job_seconds").observe(
            record.get("worker_seconds", 0.0)
        )
        self.metrics.histogram("batch.attempts").observe(state.attempt)
        span = state.span
        self._finish_span(state, "ok")
        self._graft_worker_trace(span, trace)
        self._journal_result(record)
        self._progress(record)

    def _settle_failure(
        self, state: _JobState, status: str, error: str
    ) -> None:
        record = {
            "job_id": state.job.job_id,
            "spec": state.job.spec_digest(),
            "status": status,
            "error": error,
            "attempts": state.attempt,
            "backoff_seconds": list(state.backoffs),
        }
        self.records[state.index] = record
        self.metrics.counter("batch.jobs_failed").inc()
        self.metrics.histogram("batch.attempts").observe(state.attempt)
        self._finish_span(state, status)
        self._journal_result(record)
        self._progress(record)

    def _journal_result(self, record: dict) -> None:
        # The netlist and explain log live in the artifact files; the
        # verdict and cell usage stay, so a resumed job reports both.
        if self.writer is not None:
            slim = {
                key: value
                for key, value in record.items()
                if key not in ("blif", "explain")
            }
            self.writer.write_result(slim)

    def _progress(self, record: dict) -> None:
        if self.config.progress is not None:
            self.config.progress(record)

    def _retry_or_fail(self, state: _JobState, failure: _Transient) -> bool:
        """Back the job off for another attempt; False when exhausted."""
        if state.attempt > self.config.retries:
            self._settle_failure(
                state,
                failure.status,
                f"{failure.reason} (attempts exhausted: {state.attempt})",
            )
            return False
        delay = self.config.backoff * (2 ** (state.attempt - 1))
        state.backoffs.append(delay)
        state.next_eligible = time.monotonic() + delay
        self.metrics.counter("batch.retries").inc()
        self._finish_span(state, f"retry:{failure.reason}")
        return True

    def _classify(self, state: _JobState, future: Future) -> None:
        """Settle one completed future (success, retry, or failure)."""
        exc = future.exception()
        if exc is None:
            payload = future.result()
            if text_digest(payload.get("blif", "")) != payload.get("digest"):
                self.metrics.counter("batch.corrupt_results").inc()
                if self._retry_or_fail(
                    state, _Transient("corrupted result digest")
                ):
                    self.pending.append(state)
                return
            self._settle_success(state, payload)
        elif isinstance(exc, FaultInjected):
            if self._retry_or_fail(state, _Transient(f"transient: {exc}")):
                self.pending.append(state)
        elif isinstance(exc, DeadlineExceeded):
            # The worker normally degrades to the trivial cover itself;
            # reaching here means even the fallback overran.
            self._settle_failure(state, "timeout", str(exc))
        else:
            self._settle_failure(
                state, "failed", f"{type(exc).__name__}: {exc}"
            )

    # -- crash isolation -------------------------------------------------
    def _isolate_crash(self, survivors: list[_JobState]) -> None:
        """Re-run the in-flight jobs of a broken pool one at a time.

        Alone in a fresh pool, the poison job identifies itself by
        breaking the pool again — only then does it burn an attempt;
        innocent neighbours re-run under their original attempt number
        and budget.
        """
        self.pool_breaks += 1
        self.metrics.counter("batch.pool_breaks").inc()
        self._start_pool()
        for state in sorted(survivors, key=lambda s: s.index):
            self._finish_span(state, "pool-break")
            future = self._submit(state, retry=False)
            (done,), _ = wait([future])
            crash = isinstance(done.exception(), BrokenExecutor)
            if not crash:
                self._classify(state, done)
                continue
            self.pool_breaks += 1
            self.metrics.counter("batch.pool_breaks").inc()
            self._start_pool()
            if self._retry_or_fail(
                state,
                _Transient("worker process died", status="crashed"),
            ):
                self.pending.append(state)

    # -- main loop -------------------------------------------------------
    def run(self) -> BatchReport:
        started = time.perf_counter()
        self.metrics.gauge("batch.backend").set(self.config.backend)
        self.metrics.gauge("batch.workers").set(self.workers)
        self.metrics.counter("batch.jobs").inc(len(self.jobs))
        self._span = self.tracer.start_span(
            "batch",
            backend=self.config.backend,
            workers=self.workers,
            jobs=len(self.jobs),
        )
        try:
            self._resume_skips()
            self._open_journal()
            self.pending: deque[_JobState] = deque(
                s for s in self.states if s.index not in self.records
            )
            if self.config.backend == "processes":
                self._start_pool()
            inflight: dict[Future, _JobState] = {}
            hard_timeout = (
                self.config.deadline * HARD_TIMEOUT_FACTOR
                if self.config.deadline is not None and self.pool is not None
                else None
            )
            while self.pending or inflight:
                now = time.monotonic()
                # Submit every eligible job the pool has room for, in
                # spec order (determinism of the *schedule*; results are
                # ordered by index regardless).
                eligible = [
                    s for s in self.pending if s.next_eligible <= now
                ]
                for state in sorted(eligible, key=lambda s: s.index):
                    if len(inflight) >= self.workers:
                        break
                    self.pending.remove(state)
                    inflight[self._submit(state)] = state

                if not inflight:
                    wake = min(s.next_eligible for s in self.pending)
                    time.sleep(max(0.0, min(wake - now, 1.0)))
                    continue

                done, _ = wait(
                    inflight, timeout=_TICK, return_when=FIRST_COMPLETED
                )
                broken = any(
                    isinstance(f.exception(), BrokenExecutor) for f in done
                )
                if broken:
                    # Keep work that finished before the pool died;
                    # everything else goes through crash isolation.
                    survivors = []
                    for future in list(inflight):
                        state = inflight.pop(future)
                        if future.done() and not isinstance(
                            future.exception(), BrokenExecutor
                        ):
                            self._classify(state, future)
                        else:
                            survivors.append(state)
                    self._isolate_crash(survivors)
                    continue
                for future in done:
                    state = inflight.pop(future)
                    self._classify(state, future)
                if hard_timeout is not None and not done:
                    overdue = {
                        f: s
                        for f, s in inflight.items()
                        if now - s.submitted_at > hard_timeout
                    }
                    if overdue:  # pragma: no cover - backstop path
                        survivors = [
                            s
                            for f, s in inflight.items()
                            if f not in overdue
                        ]
                        for state in overdue.values():
                            if self._retry_or_fail(
                                state,
                                _Transient(
                                    "hard deadline exceeded", status="timeout"
                                ),
                            ):
                                self.pending.append(state)
                        inflight.clear()
                        self._start_pool()
                        for state in survivors:
                            self._finish_span(state, "pool-restart")
                            state.next_eligible = 0.0
                            self.pending.append(state)
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=True, cancel_futures=True)
                self.pool = None
            self.tracer.finish_span(self._span)

        elapsed = time.perf_counter() - started
        self.metrics.gauge("batch.elapsed_seconds").set(round(elapsed, 4))
        results = [self.records[index] for index in range(len(self.jobs))]
        return BatchReport(
            results=results,
            backend=self.config.backend,
            workers=self.workers,
            elapsed=elapsed,
            skipped=self.skipped,
            pool_breaks=self.pool_breaks,
            journal=self.journal_path,
            output_dir=self.output_dir,
        )
