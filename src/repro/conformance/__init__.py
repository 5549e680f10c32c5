"""Independent conformance checking for mapped networks.

``repro.conformance`` is the eval gate of the mapping stack: a checker
that shares *no code* with the mapper's matching/covering machinery
(see docs/conformance.md for the trust model) and proves, for
any mapped netlist, the paper's two contracts — functional equivalence
and Theorem 3.2 hazard containment — emitting a version-stamped
``repro-cert/v1`` certificate with per-transition evidence digests.

* :mod:`repro.conformance.certifier` — the independent checker;
* :mod:`repro.conformance.fuzz` — the seeded fuzz harness + shrinker
  feeding the committed regression corpus (``tests/data/corpus/``).
"""

from .certifier import (
    CERT_SCHEMA,
    Certificate,
    Counterexample,
    OutputEvidence,
    certify_mapping,
)
from .fuzz import (
    CORPUS_SCHEMA,
    FuzzCase,
    FuzzReport,
    corpus_entries,
    fuzz,
    load_corpus_entry,
    random_case,
    replay_corpus_entry,
    run_case,
    shrink,
    write_corpus_entry,
)

__all__ = [
    "CERT_SCHEMA",
    "CORPUS_SCHEMA",
    "Certificate",
    "Counterexample",
    "FuzzCase",
    "FuzzReport",
    "OutputEvidence",
    "certify_mapping",
    "corpus_entries",
    "fuzz",
    "load_corpus_entry",
    "random_case",
    "replay_corpus_entry",
    "run_case",
    "shrink",
    "write_corpus_entry",
]
