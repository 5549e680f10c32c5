"""Golden end-to-end snapshot of the async mapper on the full catalog.

Every burst-mode benchmark is mapped onto CMOS3 and its area, cell
counts, per-cell usage, and certifier verdict are pinned to
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
from repro.conformance import certify_mapping
from repro.conformance.certifier import DEFAULT_EXHAUSTIVE_LIMIT
from repro.library.standard import load_library
from repro.mapping.mapper import MappingOptions, async_tmap

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_mappings.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Networks with at most this many inputs get every transition of every
#: output classified, past the certifier's default of 6 support
#: variables (pe-send-ifc, 7 inputs, is the one catalog design between).
EXHAUSTIVE_INPUTS = 8


def exhaustive_limit(network) -> int:
    inputs = len(network.inputs)
    return inputs if inputs <= EXHAUSTIVE_INPUTS else DEFAULT_EXHAUSTIVE_LIMIT


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

    certificate = certify_mapping(
        network,
        result.mapped,
        cmos3,
        exhaustive_limit=exhaustive_limit(network),
    )
    assert {
        "equivalent": certificate.equivalent,
        "hazard_safe": certificate.hazard_safe,
        "ok": certificate.certified,
    } == golden["verify"]
