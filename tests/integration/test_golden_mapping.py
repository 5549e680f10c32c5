"""Golden end-to-end snapshot of the async mapper on the full catalog.

Every burst-mode benchmark is mapped onto CMOS3 and its area, cell
counts, per-cell usage, and ``verify_mapping`` verdict are pinned to
``tests/data/golden_mappings.json``.  Any intentional mapper change
that alters results must regenerate the file::

    PYTHONPATH=src python tests/data/regen_golden_mappings.py

and justify the new numbers in the commit message.  An unintentional
diff here is a quality regression — exactly what this test exists to
catch before the perf gate does.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark
from repro.library.standard import load_library
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.mapping.verify import verify_mapping

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_mappings.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def cmos3():
    library = load_library(GOLDEN["library"])
    if not library.annotated:
        library.annotate_hazards()
    return library


def test_golden_file_covers_the_whole_catalog():
    assert sorted(GOLDEN["benchmarks"]) == sorted(TABLE5_ORDER)


@pytest.mark.parametrize("bench", TABLE5_ORDER)
def test_mapping_matches_golden(bench, cmos3):
    golden = GOLDEN["benchmarks"][bench]
    network = synthesize_benchmark(bench).netlist(bench)
    result = async_tmap(network, cmos3, MappingOptions())
    usage = {k: int(v) for k, v in sorted(result.cell_usage().items())}

    assert result.area == golden["area"], (
        f"{bench}: mapped area {result.area} != golden {golden['area']} — "
        "regenerate tests/data/golden_mappings.json if this is intentional"
    )
    assert int(sum(usage.values())) == golden["cells"]
    assert usage == golden["cell_usage"]

    report = verify_mapping(network, result.mapped)
    assert {
        "equivalent": bool(report.equivalent),
        "hazard_safe": bool(report.hazard_safe),
        "ok": bool(report.ok),
    } == golden["verify"]
