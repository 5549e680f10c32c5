#!/usr/bin/env python
"""Regenerate ``tests/data/golden_mappings.json``.

Usage (from the repo root)::

    PYTHONPATH=src python tests/data/regen_golden_mappings.py

Maps every burst-mode catalog benchmark onto CMOS3 with the async
mapper at the default depth and records, per benchmark, the mapped
area, total cell count, per-cell usage, and the ``verify_mapping``
verdict.  ``tests/integration/test_golden_mapping.py`` pins the mapper
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
from repro.library.standard import load_library
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.mapping.verify import verify_mapping

GOLDEN_PATH = HERE / "golden_mappings.json"
LIBRARY = "CMOS3"


def golden_entry(result, report) -> dict:
    return {
        "area": result.area,
        "cells": int(sum(result.cell_usage().values())),
        "cell_usage": {k: int(v) for k, v in sorted(result.cell_usage().items())},
        "verify": {
            "equivalent": bool(report.equivalent),
            "hazard_safe": bool(report.hazard_safe),
            "ok": bool(report.ok),
        },
    }


def main() -> int:
    library = load_library(LIBRARY)
    library.annotate_hazards()
    golden: dict[str, dict] = {}
    for name in TABLE5_ORDER:
        network = synthesize_benchmark(name).netlist(name)
        result = async_tmap(network, library, MappingOptions())
        report = verify_mapping(network, result.mapped)
        golden[name] = golden_entry(result, report)
        print(
            f"{name}: area={result.area:.0f} cells={golden[name]['cells']} "
            f"verify_ok={report.ok}"
        )
    payload = {"library": LIBRARY, "benchmarks": golden}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
