"""Table 5 — mapping results for the asynchronous benchmark suite.

Paper (depth 5, DEC 5000/240): CPU / delay / area of the asynchronous
mapper on eleven controllers for the LSI and CMOS3 libraries.  Absolute
values are testbed-bound (our controllers are synthetic size-matched
stand-ins; see DESIGN.md); the reproduction targets are:

* area ordering — dean-ctrl ≫ scsi > oscsi-ctrl ≈ abcs > pe-send-ifc >
  the dme/chu/vanbek cluster;
* LSI areas sit an order of magnitude above CMOS3 (different units);
* LSI delays sit well above CMOS3 delays (slower technology);
* every mapped network is functionally equivalent to its source.
"""

from repro.burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark
from repro.mapping.mapper import MappingOptions, async_tmap
from repro.reporting import render_table

from .conftest import emit


def test_table5_benchmark_suite(annotated_libraries, benchmark):
    options = MappingOptions(max_depth=5)
    rows = []
    areas = {"LSI": {}, "CMOS3": {}}
    delays = {"LSI": {}, "CMOS3": {}}
    for name in TABLE5_ORDER:
        net = synthesize_benchmark(name).netlist(name)
        row = [name]
        for library_name in ("LSI", "CMOS3"):
            library = annotated_libraries[library_name]
            result = async_tmap(net, library, options)
            assert result.mapped.equivalent(net), (name, library_name)
            areas[library_name][name] = result.area
            delays[library_name][name] = result.delay
            row += [
                f"{result.elapsed:.2f}s",
                f"{result.delay:.1f}ns",
                f"{result.area:.0f}",
            ]
        rows.append(row)

    emit(
        "table5",
        render_table(
            ["Design", "LSI CPU", "LSI Delay", "LSI Area",
             "CMOS3 CPU", "CMOS3 Delay", "CMOS3 Area"],
            rows,
            title="Table 5 — async mapper on the benchmark suite (depth 5)",
        ),
    )

    for library_name in ("LSI", "CMOS3"):
        a = areas[library_name]
        assert a["dean-ctrl"] == max(a.values()), library_name
        assert a["dean-ctrl"] > a["scsi"] > a["oscsi-ctrl"], library_name
        assert a["oscsi-ctrl"] > a["pe-send-ifc"], library_name
        for small in ("chu-ad-opt", "vanbek-opt", "dme", "dme-opt"):
            assert a[small] < a["pe-send-ifc"], (library_name, small)

    # Cross-library shapes.
    for name in TABLE5_ORDER:
        assert areas["LSI"][name] > 5 * areas["CMOS3"][name], name
        assert delays["LSI"][name] > 2 * delays["CMOS3"][name], name

    library = annotated_libraries["CMOS3"]
    net = synthesize_benchmark("dme").netlist("dme")
    benchmark(lambda: async_tmap(net, library, options))
