"""Quickstart: hazard-aware technology mapping in a dozen lines.

Maps a hazard-free combinational design (a mux with its consensus term,
exactly the Figure-3 situation) with both the synchronous baseline and
the asynchronous mapper, then verifies which flow kept the design safe.

Run:  python examples/quickstart.py
"""

from repro import Netlist, async_tmap, minimal_teaching_library, tmap
from repro.conformance import certify_mapping


def main() -> None:
    # A hazard-free design straight out of an asynchronous logic
    # optimizer: the redundant cube a*b exists precisely to hold the
    # output while s changes.
    design = Netlist.from_equations({"f": "s*a + s'*b + a*b"})
    library = minimal_teaching_library()

    sync_result = tmap(design, library)
    async_result = async_tmap(design, library)

    print("design: f = s*a + s'*b + a*b  (hazard-free source)")
    print()
    for result in (sync_result, async_result):
        certificate = certify_mapping(design, result.mapped, library)
        print(f"{result.mode:>5} mapper: area={result.area:4.0f} "
              f"delay={result.delay:.2f}  cells={result.cell_usage()}")
        print(f"       equivalent={certificate.equivalent} "
              f"hazard_safe={certificate.hazard_safe}")
        for violation in certificate.violations[:2]:
            print(f"       ! {violation}")
        print()

    assert certify_mapping(design, async_result.mapped, library).certified
    print("the asynchronous mapper preserved hazard-freedom; "
          "the synchronous one did not.")


if __name__ == "__main__":
    main()
