"""Picklable batch job specs and the worker function that runs them.

A :class:`BatchJob` is plain data — design name, library name, and the
mapping knobs — so it crosses process boundaries untouched; the worker
(:func:`execute_job`) rebuilds the heavyweight objects on its side of
the fence by routing the job through the :mod:`repro.api` facade
(:func:`repro.api.facade.execute_map`), the same execution path the CLI
and the HTTP service use.

The job's option fields are exactly the batch-carried subset of the
``repro-api/v1`` schema (:data:`repro.api.schema.BATCH_OPTION_NAMES`)
— a new mapping option is declared once in ``repro.api`` and flows to
job specs, CLI flags, and service payloads from there; a guard test
(``tests/service/test_api.py``) pins the correspondence.

Determinism contract: a worker maps through the facade and serializes
the result with the same BLIF writer the CLI uses, so for a given job
spec the returned BLIF text — and hence its SHA-256 digest — is
byte-identical across backends, worker counts, attempt numbers, and
processes.  The engine's digest verification and the checkpoint
journal both lean on that.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass
from typing import Optional

from ..api.facade import (
    FALLBACK_DEPTH,  # noqa: F401  (re-exported; the engine documents it)
    execute_map,
    netlist_blif,  # noqa: F401  (re-exported for tests and callers)
    shared_library,
    text_digest,
)
from ..api.schema import BATCH_OPTION_NAMES, ApiError, MapRequest, MapResponse
from ..library import anncache
from ..library.library import Library
from ..obs import log as obs_log
from ..obs.tracer import SpanContext, Tracer
from ..testing import faults
from ..testing.faults import FaultPlan


@dataclass(frozen=True)
class BatchJob:
    """One (design, library, options) mapping job — pure picklable data."""

    design: str
    library: str
    mode: str = "async"
    max_depth: int = 5
    max_inputs: int = 8
    objective: str = "area"
    filter_mode: str = "exact"
    verify: bool = False
    explain: bool = False

    def __post_init__(self) -> None:
        # Delegate validation to the repro-api/v1 schema — one rulebook.
        try:
            self.to_request()
        except ApiError as exc:
            raise ValueError(str(exc)) from exc

    def to_request(
        self, deadline_seconds: Optional[float] = None
    ) -> MapRequest:
        """The ``repro-api/v1`` request this job executes."""
        values = {name: getattr(self, name) for name in BATCH_OPTION_NAMES}
        return MapRequest(
            library=self.library,
            design=self.design,
            verify=self.verify,
            explain=self.explain,
            deadline_seconds=deadline_seconds,
            **values,
        )

    @property
    def job_id(self) -> str:
        """Human-readable identity used in journals, logs, and matching."""
        suffix = "" if self.mode == "async" else f"+{self.mode}"
        return f"{self.design}@{self.library}{suffix}"

    def spec_digest(self) -> str:
        """Hash of every result-affecting field (resume compares this)."""
        payload = "|".join(
            f"{key}={value}" for key, value in sorted(asdict(self).items())
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def artifact_name(self) -> str:
        """The BLIF filename this job writes under the output directory."""
        stem = self.job_id.replace("@", "__").replace("+", "_")
        return f"{stem}.blif"


def _annotated_library(name: str, cache_dir: anncache.CacheDir) -> Library:
    """Worker-process-local warm library (annotated on first mapping)."""
    return shared_library(name, cache_dir)


def _result_payload(job: BatchJob, response: MapResponse) -> dict:
    """The worker's plain-dict result, from the facade's response.

    A ``corrupt`` fault tears the BLIF *after* the digest was computed —
    exactly what a torn write or bit-flip in transit looks like to the
    engine's verification step.
    """
    payload = {
        "job_id": job.job_id,
        "spec": job.spec_digest(),
        "status": "ok",
        "digest": response.digest,
        "blif": faults.corrupt("netlist.build", response.blif),
        "area": response.area,
        "delay": response.delay,
        "cells": response.cells,
        "cell_usage": response.cell_usage,
        "cones": response.cones,
        "matches": response.matches,
        "filter_invocations": response.filter_invocations,
        "map_seconds": response.map_seconds,
        "annotate_seconds": response.annotate_seconds,
        "fallback": response.fallback,
    }
    if job.verify:
        payload["verify"] = response.verify
    if job.explain and response.explain is not None:
        payload["explain"] = response.explain
    if response.deadline_site is not None:
        payload["deadline_site"] = response.deadline_site
    if response.cached is not None:
        payload["cached"] = response.cached
    return payload


def execute_job(
    job: BatchJob,
    attempt: int = 1,
    deadline_seconds: Optional[float] = None,
    cache_dir: anncache.CacheDir = None,
    fault_plan: Optional[FaultPlan] = None,
    metrics=None,
    trace_context: Optional[SpanContext] = None,
    result_cache: bool = False,
) -> dict:
    """Run one job to a plain-dict result (the backend-agnostic worker).

    Raises only for errors the engine classifies (``FaultInjected`` is
    transient; anything else is permanent); a deadline overrun is
    handled inside the facade by degrading to the trivial depth-1 cover
    and reporting ``fallback="trivial-cover"`` — graceful degradation,
    not failure.  ``metrics`` (usable on in-process backends only)
    routes the run's telemetry into a shared registry; process-pool
    workers leave it ``None``.

    ``trace_context`` (pickled with the submission, like ``fault_plan``)
    carries the coordinator's ``trace_id`` across the process fence:
    the worker builds a same-id :class:`Tracer`, maps under it, and
    ships its span tree back as ``payload["trace"]`` for the engine to
    graft under the job's ``batch_job`` span — one batch run, one tree.
    It deliberately is NOT a :class:`BatchJob` field: the spec digest
    (and hence resume identity) must not depend on whether a run was
    observed.

    ``result_cache`` (likewise a deployment knob, not a job field)
    turns the content-addressed result cache on for this execution:
    the facade serves a byte-identical stored response when the exact
    (network, library, options) triple was mapped before.
    """
    faults.install_plan(fault_plan, job=job.job_id, attempt=attempt)
    tracer = (
        Tracer(trace_id=trace_context.trace_id)
        if trace_context is not None
        else None
    )
    try:
        started = time.perf_counter()
        with obs_log.log_context(
            job_id=job.job_id,
            trace_id=tracer.trace_id if tracer is not None else None,
            attempt=attempt,
        ):
            library = _annotated_library(job.library, cache_dir)
            request = job.to_request(deadline_seconds)
            if result_cache:
                import dataclasses

                request = dataclasses.replace(request, result_cache=True)
            response = execute_map(
                request,
                library=library,
                cache_dir=cache_dir,
                metrics=metrics,
                tracer=tracer,
            )
        payload = _result_payload(job, response)
        payload["worker_seconds"] = round(time.perf_counter() - started, 4)
        if tracer is not None:
            payload["trace"] = tracer.to_dict()
        return payload
    finally:
        faults.clear_plan()
