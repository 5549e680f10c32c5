"""repro — hazard-aware technology mapping for asynchronous designs.

A from-scratch reproduction of Siegel, De Micheli & Dill, *Automatic
Technology Mapping for Generalized Fundamental-Mode Asynchronous
Designs* (Stanford CSL-TR-93-580 / DAC 1993), including every substrate
the paper relies on:

* :mod:`repro.boolean` — cubes, covers, factored forms, BDDs;
* :mod:`repro.hazards` — the section-4 hazard-analysis algorithms plus
  an exhaustive oracle;
* :mod:`repro.network` — logic networks, hazard-preserving
  decomposition, cone partitioning, ternary simulation;
* :mod:`repro.library` — annotated cell libraries, with synthetic
  recreations of the paper's LSI / CMOS3 / GDT / Actel libraries;
* :mod:`repro.mapping` — the CERES-style Boolean-matching mapper and
  its asynchronous variant (``tmap`` / ``async_tmap``);
* :mod:`repro.burstmode` — burst-mode specifications, exact hazard-free
  two-level minimization (Nowick–Dill), synthesis, and the Table-5
  benchmark controllers.

Production surfaces on top of the core:

* :mod:`repro.api` — the frozen ``repro-api/v1`` request/response
  contract and the one execution facade every entry point routes
  through;
* :mod:`repro.batch` — the fault-tolerant batch engine;
* :mod:`repro.service` — the persistent mapping daemon (``repro
  serve``) and its HTTP client;
* :mod:`repro.conformance` — the independent certifier behind every
  equivalence + Theorem 3.2 verdict (``repro map --verify``,
  ``repro certify``, ``/v1/certify``);
* :mod:`repro.obs` — tracing, metrics, benchmark snapshots, and the
  regression gate.

Quickstart::

    from repro import Netlist, async_tmap, load_library
    from repro.conformance import certify_mapping

    net = Netlist.from_equations({"f": "s*a + s'*b + a*b"})
    library = load_library("CMOS3")
    result = async_tmap(net, library)
    assert certify_mapping(net, result.mapped, library).certified

Or through the versioned facade (what the CLI and service speak)::

    from repro import MapRequest, execute_map

    response = execute_map(MapRequest(design="dme", library="CMOS3",
                                      verify=True))
    assert response.verify["ok"]
"""

from .api import ApiError, MapRequest, MapResponse, execute_map
from .boolean import BddManager, Cover, Cube, Expr, parse
from .burstmode import (
    BurstModeSpec,
    benchmark_names,
    benchmark_netlist,
    minimize_hazard_free,
    synthesize,
)
from .hazards import (
    HazardAnalysis,
    analyze_cover,
    analyze_expression,
    hazards_subset,
)
from .library import Library, LibraryCell, load_library, minimal_teaching_library
from .mapping import (
    MappingOptions,
    MappingResult,
    async_tmap,
    tmap,
)
from .network import Netlist, async_tech_decomp, partition, tech_decomp

__version__ = "1.0.0"

__all__ = [
    "ApiError",
    "BddManager",
    "BurstModeSpec",
    "Cover",
    "Cube",
    "Expr",
    "HazardAnalysis",
    "Library",
    "LibraryCell",
    "MapRequest",
    "MapResponse",
    "MappingOptions",
    "MappingResult",
    "Netlist",
    "__version__",
    "execute_map",
    "analyze_cover",
    "analyze_expression",
    "async_tech_decomp",
    "async_tmap",
    "benchmark_names",
    "benchmark_netlist",
    "hazards_subset",
    "load_library",
    "minimal_teaching_library",
    "minimize_hazard_free",
    "parse",
    "partition",
    "synthesize",
    "tech_decomp",
    "tmap",
]
