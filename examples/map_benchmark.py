"""Map any Table-5 benchmark controller onto any standard library.

The full pipeline on real workloads: cached burst-mode synthesis, both
mappers, quality metrics, and hazard-safety verification.

Run:  python examples/map_benchmark.py [benchmark] [library]
      python examples/map_benchmark.py --list
e.g.  python examples/map_benchmark.py dme CMOS3
"""

import sys

from repro import async_tmap, load_library, tmap
from repro.burstmode import CATALOG, synthesize_benchmark
from repro.conformance import certify_mapping


def main() -> None:
    if "--list" in sys.argv:
        for name, info in CATALOG.items():
            print(f"{name:14s} {info.description}")
        return

    name = sys.argv[1] if len(sys.argv) > 1 else "dme"
    library_name = sys.argv[2] if len(sys.argv) > 2 else "CMOS3"

    synthesis = synthesize_benchmark(name)
    network = synthesis.netlist(name)
    print(f"{name}: {synthesis.spec.stats()}")
    print(f"equations: {len(synthesis.equations)} outputs, "
          f"{synthesis.total_cubes()} cubes, "
          f"{synthesis.total_literals()} literals")

    library = load_library(library_name)
    if not library.annotated:
        report = library.annotate_hazards()
        print(f"annotated {library.name} in {report.elapsed:.2f}s "
              f"({report.hazardous} hazardous cells)")

    for mapper in (tmap, async_tmap):
        result = mapper(network, library)
        print(f"\n{result.mode} mapping: area={result.area:.0f} "
              f"delay={result.delay:.2f}ns cpu={result.elapsed:.2f}s")
        print(f"  cells: {result.cell_usage()}")
        if result.stats.hazardous_matches:
            print(f"  hazard filter: {result.stats.hazardous_matches} screened, "
                  f"{result.stats.hazard_rejections} rejected, "
                  f"{result.stats.hazard_accepts} accepted")
        certificate = certify_mapping(network, result.mapped, library)
        print(f"  equivalent={certificate.equivalent} "
              f"hazard_safe={certificate.hazard_safe}")


if __name__ == "__main__":
    main()
