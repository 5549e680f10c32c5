"""Golden end-to-end snapshot of the mappers on the full catalog.

Every burst-mode benchmark is mapped onto CMOS3 and its area, cell
counts, per-cell usage, and certifier verdict are pinned to
``tests/data/golden_mappings.json``.  Every benchmark is also mapped
onto every standard library in both modes, and the SHA-256 of each
mapped BLIF is pinned there: the byte-identity contract that lets a
performance change or a deletion prove it altered no netlist.  The
evidence digest of each async ACTEL and CMOS3 mapping's certificate is
pinned too: it hashes every checked transition's verdict, so a change
to the hazard oracle must prove it altered none.  So is a SHA-256 over
every library cell's exhaustive hazardous-transition verdicts, the
lists the annotation cache stores.  Last, the planted-hazard variant of
each async ACTEL mapping must be rejected with a pinned certificate: a
SHA-256 over its whole payload but the wall time, so new-hazard
replays, their schedules, counterexamples and violation lines are
pinned too.  So is each async ACTEL netlist mapped under the paper's
record-list filter (``filter_mode="paper"``), the one path on which a
standard library can read a cluster's section-4 records.  Beside each
of those netlists every ``CoverStats`` counter of its map is pinned, so
a change to the covering DP must prove it did the same work.  Any
intentional change that alters results must regenerate the file::

    PYTHONPATH=src python tests/data/regen_golden_mappings.py

and justify the new numbers in the commit message.  An unintentional
diff here is a quality regression — exactly what this test exists to
catch before the perf gate does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.facade import netlist_blif, text_digest
from repro.burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark
from repro.conformance import certify_mapping
from repro.conformance.certifier import DEFAULT_EXHAUSTIVE_LIMIT
from repro.library.standard import ALL_LIBRARIES, load_library
from repro.mapping.cover import CoverStats
from repro.mapping.mapper import MappingOptions, async_tmap, map_network
from repro.testing.faults import seed_hazard

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_mappings.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Libraries whose catalog certificates are pinned: ACTEL is where the
#: hazard filter fires, CMOS3 the golden library.
CERTIFICATE_LIBRARIES = ("ACTEL", "CMOS3")

#: Libraries whose planted-hazard rejections are pinned.
REJECTION_LIBRARIES = ("ACTEL",)

#: Libraries whose async netlists under ``filter_mode="paper"`` are pinned.
PAPER_LIBRARIES = ("ACTEL",)

#: Networks with at most this many inputs get every transition of every
#: output classified, past the certifier's default of 6 support
#: variables (pe-send-ifc, 7 inputs, is the one catalog design between).
EXHAUSTIVE_INPUTS = 8


def stats_counters(stats) -> dict[str, int]:
    """Every ``CoverStats`` counter of one map, by field name."""
    return {name: getattr(stats, name) for name in CoverStats.COUNTER_FIELDS}


def exhaustive_limit(network) -> int:
    inputs = len(network.inputs)
    return inputs if inputs <= EXHAUSTIVE_INPUTS else DEFAULT_EXHAUSTIVE_LIMIT


@pytest.fixture(scope="module")
def cmos3():
    library = load_library(GOLDEN["library"])
    if not library.annotated:
        library.annotate_hazards()
    return library


@pytest.fixture(scope="module")
def libraries():
    """One instance per standard library, shared by its two modes."""
    return {}


def test_golden_file_covers_the_whole_catalog():
    assert sorted(GOLDEN["benchmarks"]) == sorted(TABLE5_ORDER)
    assert sorted(GOLDEN["digests"]) == sorted(ALL_LIBRARIES)
    for modes in GOLDEN["digests"].values():
        assert sorted(modes) == ["async", "sync"]
        for digests in modes.values():
            assert sorted(digests) == sorted(TABLE5_ORDER)
    assert sorted(GOLDEN["certificates"]) == sorted(CERTIFICATE_LIBRARIES)
    for digests in GOLDEN["certificates"].values():
        assert sorted(digests) == sorted(TABLE5_ORDER)
    assert sorted(GOLDEN["annotations"]) == sorted(ALL_LIBRARIES)
    assert sorted(GOLDEN["rejections"]) == sorted(REJECTION_LIBRARIES)
    for digests in GOLDEN["rejections"].values():
        assert sorted(digests) == sorted(TABLE5_ORDER)
    assert sorted(GOLDEN["paper"]) == sorted(PAPER_LIBRARIES)
    for digests in GOLDEN["paper"].values():
        assert sorted(digests) == sorted(TABLE5_ORDER)
    assert sorted(GOLDEN["counters"]) == sorted(ALL_LIBRARIES)
    for library_name, modes in GOLDEN["counters"].items():
        paper = ["paper"] if library_name in PAPER_LIBRARIES else []
        assert sorted(modes) == sorted(["async", "sync"] + paper)
        for counters in modes.values():
            assert sorted(counters) == sorted(TABLE5_ORDER)
            for values in counters.values():
                assert sorted(values) == sorted(CoverStats.COUNTER_FIELDS)


@pytest.mark.parametrize(
    "library_name,mode",
    [(name, mode) for name in ALL_LIBRARIES for mode in ("async", "sync")],
)
def test_mapped_blifs_are_byte_identical(library_name, mode, libraries):
    if library_name not in libraries:
        libraries[library_name] = load_library(library_name)
    library = libraries[library_name]
    expected = GOLDEN["digests"][library_name][mode]
    expected_counters = GOLDEN["counters"][library_name][mode]
    changed, recounted = [], []
    for bench in TABLE5_ORDER:
        network = synthesize_benchmark(bench).netlist(bench)
        result = map_network(network, library, MappingOptions(), mode=mode)
        # The per-node cluster cap never truncates on the catalog, and
        # the exact filter never needs a cluster's record lists.
        assert result.stats.cluster_cap_hits == 0, bench
        assert result.stats.cluster_analyses == 0, bench
        if text_digest(netlist_blif(result.mapped)) != expected[bench]:
            changed.append(bench)
        if stats_counters(result.stats) != expected_counters[bench]:
            recounted.append(bench)
    assert not changed, (
        f"{library_name} {mode}: mapped BLIF of {changed} changed — "
        "regenerate tests/data/golden_mappings.json if this is intentional"
    )
    assert not recounted, (
        f"{library_name} {mode}: covering counters of {recounted} changed — "
        "regenerate tests/data/golden_mappings.json if this is intentional"
    )


@pytest.mark.parametrize("library_name", PAPER_LIBRARIES)
def test_paper_filter_blifs_are_byte_identical(library_name, libraries):
    if library_name not in libraries:
        libraries[library_name] = load_library(library_name)
    library = libraries[library_name]
    expected = GOLDEN["paper"][library_name]
    expected_counters = GOLDEN["counters"][library_name]["paper"]
    changed, recounted = [], []
    for bench in TABLE5_ORDER:
        network = synthesize_benchmark(bench).netlist(bench)
        result = async_tmap(network, library, MappingOptions(filter_mode="paper"))
        if text_digest(netlist_blif(result.mapped)) != expected[bench]:
            changed.append(bench)
        if stats_counters(result.stats) != expected_counters[bench]:
            recounted.append(bench)
    assert not changed, (
        f"{library_name} paper filter: mapped BLIF of {changed} changed — "
        "regenerate tests/data/golden_mappings.json if this is intentional"
    )
    assert not recounted, (
        f"{library_name} paper filter: covering counters of {recounted} "
        "changed — regenerate tests/data/golden_mappings.json if this is "
        "intentional"
    )


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


@pytest.mark.parametrize("library_name", sorted(ALL_LIBRARIES))
def test_annotation_verdicts_are_byte_identical(library_name, libraries):
    if library_name not in libraries:
        libraries[library_name] = load_library(library_name)
    library = libraries[library_name]
    if not library.annotated:
        library.annotate_hazards()
    assert annotation_digest(library) == GOLDEN["annotations"][library_name], (
        f"{library_name}: exhaustive cell verdicts changed — the annotation "
        "cache stores them; regenerate tests/data/golden_mappings.json and "
        "bump anncache.CACHE_VERSION if this is intentional"
    )


@pytest.mark.parametrize("library_name", CERTIFICATE_LIBRARIES)
def test_certificates_are_byte_identical(library_name, libraries):
    if library_name not in libraries:
        libraries[library_name] = load_library(library_name)
    library = libraries[library_name]
    expected = GOLDEN["certificates"][library_name]
    changed = []
    for bench in TABLE5_ORDER:
        network = synthesize_benchmark(bench).netlist(bench)
        result = async_tmap(network, library, MappingOptions())
        certificate = certify_mapping(network, result.mapped, library)
        if certificate.evidence_digest != expected[bench]:
            changed.append(bench)
    assert not changed, (
        f"{library_name}: certificate evidence of {changed} changed — "
        "regenerate tests/data/golden_mappings.json if this is intentional"
    )


def certificate_digest(certificate) -> str:
    """SHA-256 over the canonical JSON of a certificate payload, without
    its wall time."""
    payload = certificate.to_dict()
    del payload["elapsed"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("library_name", REJECTION_LIBRARIES)
def test_rejected_certificates_are_byte_identical(library_name, libraries):
    if library_name not in libraries:
        libraries[library_name] = load_library(library_name)
    library = libraries[library_name]
    expected = GOLDEN["rejections"][library_name]
    changed = []
    for bench in TABLE5_ORDER:
        network = synthesize_benchmark(bench).netlist(bench)
        result = async_tmap(network, library, MappingOptions())
        seeded = seed_hazard(result.mapped, network, seed=0)
        certificate = certify_mapping(network, seeded.netlist, library)
        assert certificate.verdict == "rejected", bench
        assert certificate.equivalent and not certificate.hazard_safe, bench
        if certificate_digest(certificate) != expected[bench]:
            changed.append(bench)
    assert not changed, (
        f"{library_name}: rejected certificate of {changed} changed — "
        "regenerate tests/data/golden_mappings.json if this is intentional"
    )


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
