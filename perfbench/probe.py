"""Set-up probe: a fresh interpreter that answers one small request.

Usage (spawned by the benchmark, which times it)::

    python3 perfbench/probe.py map|certify CACHE_DIR

Prints ``ready`` once the first request is answered.  ``map`` pays
imports, library load and cold hazard annotation into the empty
``CACHE_DIR``; ``certify`` pays imports and library load.
"""

from __future__ import annotations

import sys

from common import LIBRARY, MAX_DEPTH, WARMUP_DESIGN, data_text, load_manifest


def main(kind: str, cache_dir: str) -> int:
    entry = load_manifest()["designs"][WARMUP_DESIGN]
    network = {"blif": data_text(entry["source"]), "name": WARMUP_DESIGN}
    mapped = data_text(entry["mappings"]["area"]["blif"])

    from repro.api import (CertifyRequest, MapRequest, execute_certify,
                           execute_map)

    if kind == "map":
        response = execute_map(
            MapRequest(library=LIBRARY, network=network, max_depth=MAX_DEPTH),
            cache_dir=cache_dir,
        )
        ok = response.fallback is None
    else:
        response = execute_certify(
            CertifyRequest(mapped_blif=mapped, network=network,
                           library=LIBRARY),
            cache_dir=cache_dir,
        )
        ok = response.certified
    print("ready" if ok else "wrong answer", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
