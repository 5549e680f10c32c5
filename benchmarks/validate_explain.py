"""Validate a ``repro-explain/v1`` artifact (the CI explain-log gate).

Checks, in order:

1. the payload loads and carries the right schema stamp;
2. the summary is consistent with the recorded candidates — every
   hazard-filter invocation is explained and every hazard rejection
   carries a reason plus a witness (``validate_explain_payload``);
3. every witness actually glitches when replayed on the event
   simulator against its cell's path-labelled implementation
   (``verify_explain_witnesses``), using the library named in the
   payload.

Usage::

    PYTHONPATH=src python benchmarks/validate_explain.py EXPLAIN.json

Exits nonzero with a one-line diagnosis on the first failure.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(
            "usage: validate_explain.py EXPLAIN.json", file=sys.stderr
        )
        return 2
    path = argv[1]

    from repro.library.standard import ALL_LIBRARIES, load_library
    from repro.obs.explain import (
        validate_explain_payload,
        verify_explain_witnesses,
    )
    from repro.obs.export import load_explain

    try:
        payload = load_explain(path)
    except (OSError, ValueError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1

    try:
        summary = validate_explain_payload(payload)
    except ValueError as exc:
        print(f"FAIL: schema violation: {exc}", file=sys.stderr)
        return 1

    replayed = 0
    library_name = payload.get("library", "")
    if library_name in ALL_LIBRARIES:
        library = load_library(library_name)
        try:
            replayed = verify_explain_witnesses(payload, library)
        except ValueError as exc:
            print(f"FAIL: witness replay: {exc}", file=sys.stderr)
            return 1
    elif summary.get("rejected_hazard", 0):
        print(
            f"FAIL: payload has hazard rejections but library "
            f"{library_name!r} is not loadable for witness replay",
            file=sys.stderr,
        )
        return 1

    print(
        f"OK: {path}: {summary['candidates']} candidates over "
        f"{summary['cones']} cones, "
        f"{summary['filter_invocations']} filter invocations explained, "
        f"{summary['rejected_hazard']} hazard rejections, "
        f"{replayed} witness(es) replayed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
