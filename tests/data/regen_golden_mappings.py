#!/usr/bin/env python
"""Regenerate ``tests/data/golden_mappings.json``.

Usage (from the repo root)::

    PYTHONPATH=src python tests/data/regen_golden_mappings.py

Maps every burst-mode catalog benchmark onto CMOS3 with the async
mapper at the default depth and records, per benchmark, the mapped
area, total cell count, per-cell usage, and the certifier's verdict
(every transition enumerated on networks of up to 8 inputs).  It also
maps every benchmark onto every standard library in both modes (async
and sync) at the default options and records the SHA-256 of each
mapped BLIF (``digests[library][mode][benchmark]``): the byte-identity
pin.  Last, it certifies each benchmark's async mapping on ACTEL and
CMOS3 at the certifier's defaults and records the certificate's
``evidence_digest`` (``certificates[library][benchmark]``), which
hashes every checked transition's verdict: the hazard oracle's pin.
For every standard library it also records a SHA-256 over each cell's
exhaustive hazardous-transition verdict list, in order
(``annotations[library]``): the annotation cache stores those lists.
``tests/integration/test_golden_mapping.py`` pins the mapper and the
certifier against this file, so regenerate it ONLY when a change is
meant to alter results — and say why in the commit that updates it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from repro.api.facade import netlist_blif, text_digest
from repro.burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark
from repro.conformance import certify_mapping
from repro.conformance.certifier import DEFAULT_EXHAUSTIVE_LIMIT
from repro.library.standard import load_library
from repro.mapping.mapper import MappingOptions, async_tmap, map_network

GOLDEN_PATH = HERE / "golden_mappings.json"
LIBRARY = "CMOS3"
EXHAUSTIVE_INPUTS = 8
DIGEST_LIBRARIES = ("ACTEL", "CMOS3", "LSI", "GDT")
MODES = ("async", "sync")
CERTIFICATE_LIBRARIES = ("ACTEL", "CMOS3")


def golden_entry(result, certificate) -> dict:
    return {
        "area": result.area,
        "cells": int(sum(result.cell_usage().values())),
        "cell_usage": {k: int(v) for k, v in sorted(result.cell_usage().items())},
        "verify": {
            "equivalent": certificate.equivalent,
            "hazard_safe": certificate.hazard_safe,
            "ok": certificate.certified,
        },
    }


def mapped_digests(library, mode: str) -> dict[str, str]:
    """SHA-256 of the mapped BLIF of every catalog benchmark."""
    digests = {}
    for name in TABLE5_ORDER:
        network = synthesize_benchmark(name).netlist(name)
        result = map_network(network, library, MappingOptions(), mode=mode)
        digests[name] = text_digest(netlist_blif(result.mapped))
    return digests


def evidence_digests(library) -> dict[str, str]:
    """Evidence digest of each catalog benchmark's certified async
    mapping, at the certifier's defaults."""
    digests = {}
    for name in TABLE5_ORDER:
        network = synthesize_benchmark(name).netlist(name)
        result = async_tmap(network, library, MappingOptions())
        certificate = certify_mapping(network, result.mapped, library)
        digests[name] = certificate.evidence_digest
    return digests


def annotation_digest(library) -> str:
    """SHA-256 over every cell's exhaustive verdict list, in order."""
    verdicts = [
        [
            cell.name,
            None
            if cell.analysis.verdicts is None
            else [
                [v.start, v.end, v.kind.value, v.function_hazard, v.logic_hazard]
                for v in cell.analysis.verdicts
            ],
        ]
        for cell in library.cells
    ]
    return hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()


def main() -> int:
    library = load_library(LIBRARY)
    library.annotate_hazards()
    golden: dict[str, dict] = {}
    for name in TABLE5_ORDER:
        network = synthesize_benchmark(name).netlist(name)
        result = async_tmap(network, library, MappingOptions())
        inputs = len(network.inputs)
        certificate = certify_mapping(
            network,
            result.mapped,
            library,
            exhaustive_limit=(
                inputs
                if inputs <= EXHAUSTIVE_INPUTS
                else DEFAULT_EXHAUSTIVE_LIMIT
            ),
        )
        golden[name] = golden_entry(result, certificate)
        print(
            f"{name}: area={result.area:.0f} cells={golden[name]['cells']} "
            f"verify_ok={certificate.certified}"
        )
    digests: dict[str, dict[str, dict[str, str]]] = {}
    annotations: dict[str, str] = {}
    for library_name in DIGEST_LIBRARIES:
        target = load_library(library_name)
        digests[library_name] = {}
        for mode in MODES:
            digests[library_name][mode] = mapped_digests(target, mode)
            print(f"{library_name} {mode}: {len(TABLE5_ORDER)} digests")
        # The async maps annotated the library.
        annotations[library_name] = annotation_digest(target)
    certificates = {}
    for library_name in CERTIFICATE_LIBRARIES:
        certificates[library_name] = evidence_digests(load_library(library_name))
        print(f"{library_name}: {len(TABLE5_ORDER)} evidence digests")
    payload = {
        "annotations": annotations,
        "library": LIBRARY,
        "benchmarks": golden,
        "digests": digests,
        "certificates": certificates,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
