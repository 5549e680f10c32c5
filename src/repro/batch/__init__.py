"""Fault-tolerant batch mapping: many (design, library) jobs, one engine.

Public surface::

    from repro.batch import BatchJob, BatchConfig, run_batch

    jobs = [BatchJob(design=name, library="CMOS3") for name in catalog]
    report = run_batch(jobs, BatchConfig(backend="processes", workers=4,
                                         deadline=60, retries=2))

See :mod:`repro.batch.engine` for the robustness guarantees (deadlines
with trivial-cover fallback, retry with exponential backoff, crash
isolation, digest-verified ``repro-batch/v1`` checkpoint journal) and
``repro batch --help`` for the CLI.
"""

from .engine import (  # noqa: F401
    BACKEND_NAMES,
    BatchConfig,
    BatchConfigError,
    BatchReport,
    run_batch,
)
from .jobs import BatchJob, execute_job, netlist_blif, text_digest  # noqa: F401
from .journal import (  # noqa: F401
    BATCH_SCHEMA,
    JournalError,
    check_artifacts,
    file_digest,
    read_journal,
    validate_journal,
)

__all__ = [
    "BACKEND_NAMES",
    "BATCH_SCHEMA",
    "BatchConfig",
    "BatchConfigError",
    "BatchJob",
    "BatchReport",
    "JournalError",
    "check_artifacts",
    "execute_job",
    "file_digest",
    "netlist_blif",
    "read_journal",
    "run_batch",
    "text_digest",
    "validate_journal",
]
