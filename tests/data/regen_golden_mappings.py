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
And it certifies, at the defaults, the planted-hazard variant
(``seed_hazard(mapped, source, seed=0)``) of each benchmark's async
ACTEL mapping, which must be rejected, and records a SHA-256 over the
canonical JSON of the whole certificate payload but ``elapsed``
(``rejections[ACTEL][benchmark]``): the pin on new-hazard replays,
schedules, counterexamples and violation lines, none of which enter
an evidence digest.  Finally, it maps every benchmark onto ACTEL with the
async mapper under the paper's record-list filter
(``MappingOptions(filter_mode="paper")``) and records the SHA-256 of
each mapped BLIF (``paper[ACTEL][benchmark]``): the pin on the one
path on which a standard library can read a cluster's section-4
records.  Beside each of those digests (the 88 catalog maps and the
ACTEL paper-filter maps) it records every ``CoverStats.COUNTER_FIELDS``
value of the map (``counters[library][mode][benchmark]``, with mode
``async``, ``sync`` or ``paper``): the pin on the covering DP's work,
which a change can alter without altering a netlist.
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
from repro.mapping.cover import CoverStats
from repro.mapping.mapper import MappingOptions, async_tmap, map_network
from repro.testing.faults import seed_hazard

GOLDEN_PATH = HERE / "golden_mappings.json"
LIBRARY = "CMOS3"
EXHAUSTIVE_INPUTS = 8
DIGEST_LIBRARIES = ("ACTEL", "CMOS3", "LSI", "GDT")
MODES = ("async", "sync")
CERTIFICATE_LIBRARIES = ("ACTEL", "CMOS3")
REJECTION_LIBRARIES = ("ACTEL",)
PAPER_LIBRARIES = ("ACTEL",)


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


def stats_counters(stats) -> dict[str, int]:
    """Every ``CoverStats`` counter of one map, by field name."""
    return {name: getattr(stats, name) for name in CoverStats.COUNTER_FIELDS}


def mapped_digests(library, mode: str) -> tuple[dict[str, str], dict[str, dict]]:
    """SHA-256 of the mapped BLIF of every catalog benchmark, and the
    map's covering counters."""
    digests, counters = {}, {}
    for name in TABLE5_ORDER:
        network = synthesize_benchmark(name).netlist(name)
        result = map_network(network, library, MappingOptions(), mode=mode)
        digests[name] = text_digest(netlist_blif(result.mapped))
        counters[name] = stats_counters(result.stats)
    return digests, counters


def paper_digests(library) -> tuple[dict[str, str], dict[str, dict]]:
    """SHA-256 of the async mapped BLIF of every catalog benchmark under
    the paper's record-list filter, and the map's covering counters."""
    digests, counters = {}, {}
    for name in TABLE5_ORDER:
        network = synthesize_benchmark(name).netlist(name)
        result = async_tmap(network, library, MappingOptions(filter_mode="paper"))
        digests[name] = text_digest(netlist_blif(result.mapped))
        counters[name] = stats_counters(result.stats)
    return digests, counters


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


def certificate_digest(certificate) -> str:
    """SHA-256 over the canonical JSON of a certificate payload, without
    its wall time."""
    payload = certificate.to_dict()
    del payload["elapsed"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rejection_digests(library) -> dict[str, str]:
    """Payload digest of the rejected certificate of each catalog
    benchmark's async mapping with a planted hazard."""
    digests = {}
    for name in TABLE5_ORDER:
        network = synthesize_benchmark(name).netlist(name)
        result = async_tmap(network, library, MappingOptions())
        seeded = seed_hazard(result.mapped, network, seed=0)
        certificate = certify_mapping(network, seeded.netlist, library)
        assert certificate.verdict == "rejected", name
        digests[name] = certificate_digest(certificate)
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
    counters: dict[str, dict[str, dict[str, dict]]] = {}
    annotations: dict[str, str] = {}
    for library_name in DIGEST_LIBRARIES:
        target = load_library(library_name)
        digests[library_name] = {}
        counters[library_name] = {}
        for mode in MODES:
            (
                digests[library_name][mode],
                counters[library_name][mode],
            ) = mapped_digests(target, mode)
            print(f"{library_name} {mode}: {len(TABLE5_ORDER)} digests")
        # The async maps annotated the library.
        annotations[library_name] = annotation_digest(target)
    certificates = {}
    for library_name in CERTIFICATE_LIBRARIES:
        certificates[library_name] = evidence_digests(load_library(library_name))
        print(f"{library_name}: {len(TABLE5_ORDER)} evidence digests")
    rejections = {}
    for library_name in REJECTION_LIBRARIES:
        rejections[library_name] = rejection_digests(load_library(library_name))
        print(f"{library_name}: {len(TABLE5_ORDER)} rejection digests")
    paper = {}
    for library_name in PAPER_LIBRARIES:
        paper[library_name], counters[library_name]["paper"] = paper_digests(
            load_library(library_name)
        )
        print(f"{library_name}: {len(TABLE5_ORDER)} paper-filter digests")
    payload = {
        "annotations": annotations,
        "library": LIBRARY,
        "benchmarks": golden,
        "digests": digests,
        "counters": counters,
        "certificates": certificates,
        "rejections": rejections,
        "paper": paper,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
