#!/usr/bin/env python
"""Regenerate ``tests/data/golden_mappings.json``.

Usage (from the repo root)::

    PYTHONPATH=src python tests/data/regen_golden_mappings.py

Maps every burst-mode catalog benchmark onto CMOS3 with the async
mapper at the default depth and records, per benchmark, the mapped
area, total cell count, per-cell usage, and the certifier's verdict
(every transition enumerated on networks of up to 8 inputs).  ``tests/integration/test_golden_mapping.py`` pins the mapper
against this file, so regenerate it ONLY when a mapper change is meant
to alter results — and say why in the commit that updates it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from repro.burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark
from repro.conformance import certify_mapping
from repro.conformance.certifier import DEFAULT_EXHAUSTIVE_LIMIT
from repro.library.standard import load_library
from repro.mapping.mapper import MappingOptions, async_tmap

GOLDEN_PATH = HERE / "golden_mappings.json"
LIBRARY = "CMOS3"
EXHAUSTIVE_INPUTS = 8


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
    payload = {"library": LIBRARY, "benchmarks": golden}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
