"""Regenerate the committed benchmark inputs in ``perfbench/data/``.

Usage, from the repository root::

    python3 perfbench/generate.py

For every design the in-process workloads use, it writes the source
network (the burst-mode synthesis result) and its async ACTEL mapping
at depth 5 under both objectives, plus ``manifest.json`` with each
mapping's digest and area.  certify-actel certifies these netlists
without running the mapper; map-async-actel compares its responses'
digests with them.  Rerun it only on purpose: the digests pin the
netlists the program produced when they were generated.
"""

from __future__ import annotations

import json
import sys

from common import (DATA, LIBRARY, MAP_DESIGNS, MAX_DEPTH, OBJECTIVES,
                    WARMUP_DESIGN, ensure_hermetic)


def main() -> int:
    ensure_hermetic()
    from repro.api import MapRequest, execute_map
    from repro.api.facade import netlist_blif, request_netlist
    from repro.library import anncache

    DATA.mkdir(exist_ok=True)
    designs = {}
    for design in (WARMUP_DESIGN, *MAP_DESIGNS):
        source = netlist_blif(
            request_netlist(MapRequest(library=LIBRARY, design=design))
        )
        (DATA / f"{design}.blif").write_text(source)
        mappings = {}
        for objective in OBJECTIVES:
            response = execute_map(
                MapRequest(library=LIBRARY,
                           network={"blif": source, "name": design},
                           max_depth=MAX_DEPTH, objective=objective),
                cache_dir=anncache.DISABLED,
            )
            name = f"{design}.{objective}.blif"
            (DATA / name).write_text(response.blif)
            mappings[objective] = {"blif": name, "digest": response.digest,
                                   "area": response.area}
            print(f"{design} {objective}: area {response.area} "
                  f"{response.map_seconds:.2f}s", flush=True)
        designs[design] = {"source": f"{design}.blif", "mappings": mappings}
    manifest = {"schema": "perfbench-inputs/v1", "library": LIBRARY,
                "mode": "async", "max_depth": MAX_DEPTH, "designs": designs}
    (DATA / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
