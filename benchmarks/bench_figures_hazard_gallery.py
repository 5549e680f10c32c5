"""Figures 2–10 — the paper's worked hazard examples, regenerated.

Each check reconstructs a figure's circuit (exactly where the text
pins it down, representatively where only the structure is described)
and re-derives the figure's claim with the section-4 algorithms,
printing a gallery summary.
"""

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.expr import parse
from repro.boolean.paths import label_cover, label_expression
from repro.conformance import certify_mapping
from repro.hazards.dynamic import exhibits_mic_dynamic, find_mic_dyn_haz_2level
from repro.hazards.multilevel import find_mic_dyn_haz_multilevel
from repro.hazards.oracle import classify_transition
from repro.hazards.sic import find_sic_dynamic_hazards
from repro.hazards.static0 import find_static0_hazards
from repro.hazards.static1 import exhibits_static1, find_static1_hazards
from repro.hazards.transition import dynamic_fhf, transition_space
from repro.mapping.mapper import async_tmap, tmap
from repro.network.netlist import Netlist
from repro.reporting import render_table

from .conftest import emit

W = ["w", "x", "y", "z"]
GALLERY: list[tuple[str, str]] = []


def record(figure: str, claim: str) -> None:
    GALLERY.append((figure, claim))


def test_figure2a_sic_static1(benchmark):
    # A 1-1 transition not held by any single gate glitches; adding the
    # bridging AND gate removes it.
    cover = Cover.from_strings(["w'x", "wz"], W)
    transition = Cube.from_string("xz", W)  # spans w'xyz -> wxyz
    assert cover.contains_cube(transition)
    assert exhibits_static1(cover, transition)
    fixed = cover.with_cube(Cube.from_string("xz", W))
    assert not exhibits_static1(fixed, transition)
    record("2a", "uncovered 1-1 transition glitches; bridging gate fixes it")
    benchmark(lambda: exhibits_static1(cover, transition))


def test_figure2b_mic_static1(benchmark):
    cover = Cover.from_strings(["w'x'", "y'z", "w'y", "xz"], W)
    hazards = find_static1_hazards(cover)
    assert hazards, "the four-cube example carries m.i.c. static-1 hazards"
    record("2b", f"m.i.c. static-1 hazards found: {len(hazards)}")
    benchmark(lambda: find_static1_hazards(cover))


def test_figure2c_dynamic(benchmark):
    cover = Cover.from_strings(["w'x", "xy", "wz"], W)
    hazards = find_mic_dyn_haz_2level(cover)
    assert hazards
    record("2c", "a gate can pulse during a dynamic burst (Thm 4.1)")
    benchmark(lambda: find_mic_dyn_haz_2level(cover))


def test_figure3_boolean_match_loses_redundant_cube(mini_library, benchmark):
    net = Netlist.from_equations({"f": "s*a + s'*b + a*b"})
    sync_cert = certify_mapping(net, tmap(net, mini_library).mapped)
    async_cert = certify_mapping(net, async_tmap(net, mini_library).mapped)
    assert sync_cert.equivalent and not sync_cert.hazard_safe
    assert async_cert.certified
    record("3", "sync Boolean match drops the consensus cube; async keeps it")
    benchmark.pedantic(lambda: async_tmap(net, mini_library), rounds=1, iterations=1)


def test_figure4_structures_differ(benchmark):
    sop = label_expression(parse("w*y + x*y"))
    factored = label_expression(parse("(w + x)*y"))
    assert find_mic_dyn_haz_multilevel(sop)
    assert not find_mic_dyn_haz_multilevel(factored)
    record("4", "same function, two BFF structures, different dynamic hazards")
    benchmark(lambda: find_mic_dyn_haz_multilevel(factored))


def test_figure5_conflicts_bitvector(benchmark):
    cover = Cover.from_strings(["w'x", "xy", "wz"], W)
    c1, c2, c3 = cover.cubes
    assert c1.conflicts(c3) == 0b0001 and c1.is_adjacent(c3)
    adjacency = c1.consensus(c3)
    assert adjacency is not None and adjacency.to_string(W) == "xz"
    assert not cover.single_cube_contains(adjacency)
    hazards = find_static1_hazards(cover)
    assert any(h.transition == adjacency for h in hazards)
    record("5", "CONFLICTS bit-vector finds the uncovered adjacency xz")
    benchmark(lambda: c1.conflicts(c3))


def test_figure6_static0_and_sic(benchmark):
    lsop = label_expression(parse("(w + x' + y')*(x*y + y'*z)"))
    static0 = find_static0_hazards(lsop)
    sic = find_sic_dynamic_hazards(lsop)
    assert any(h.var == lsop.index["x"] for h in static0)
    assert any(h.var == lsop.index["y"] for h in sic)
    record("6", "reconvergent paths: static-0 on x, s.i.c. dynamic on y")
    benchmark(lambda: find_static0_hazards(lsop))


def test_figure7_function_vs_logic_paths(benchmark):
    # Within one transition space, some change orders are clean, some
    # excite a logic hazard, and some a function hazard.
    cover = Cover.from_strings(["w'xz", "w'xy", "xyz"], W)
    lsop = label_cover(cover, W)
    alpha, beta = 0b1100, 0b0110  # y,z high -> x,y high
    assert dynamic_fhf(cover, alpha, beta)
    verdict = classify_transition(lsop, alpha, beta)
    assert verdict.logic_hazard
    record("7", "a transition space mixes clean, logic- and function-hazard paths")
    benchmark(lambda: classify_transition(lsop, alpha, beta))


def test_figure8_transition_spaces(benchmark):
    cover = Cover.from_strings(["w'xz", "w'xy", "xyz"], W)
    alpha, gamma = 0b1100, 0b0110
    beta, delta = 0b0011, 0b1110
    assert exhibits_mic_dynamic(cover, alpha, gamma)
    space = transition_space(beta, delta, 4)
    assert all(
        cube.contains_point(delta) for cube in cover if cube.intersects(space)
    )
    record("8", "T[alpha,gamma] hazardous; T[beta,delta] safe (condition 2)")
    benchmark(lambda: exhibits_mic_dynamic(cover, alpha, gamma))


def test_figure9_dynamic_from_static1(benchmark):
    cover = Cover.from_strings(["wxy", "w'xz"], W)
    static1 = find_static1_hazards(cover)
    assert any(h.transition.to_string(W) == "xyz" for h in static1)
    # the dynamic procedure intentionally does not re-report it
    dynamic = find_mic_dyn_haz_2level(cover)
    assert not dynamic
    record("9", "m.i.c. dynamic shadow of a static-1 hazard: characterized once")
    benchmark(lambda: find_static1_hazards(cover))


def test_figure10_procedure_walkthrough(benchmark):
    cover = Cover.from_strings(["w'xy", "w'xz", "xyz"], W)
    from repro.hazards.dynamic import cube_intersections

    inters = cube_intersections(cover)
    assert {c.to_string(W) for c in inters} == {"w'xyz"}
    inter = inters[0]
    alpha = [p for v in [0, 1, 2, 3] if inter.used >> v & 1
             for p in [next(iter(inter.flip_var(v).minterms()))]
             if not cover.evaluate(p)]
    beta = [p for v in [0, 1, 2, 3] if inter.used >> v & 1
            for p in [next(iter(inter.flip_var(v).minterms()))]
            if cover.evaluate(p)]
    assert len(alpha) == 1 and len(beta) == 3  # Example 4.2.4's sets
    hazards = find_mic_dyn_haz_2level(cover)
    assert len(hazards) == 3
    record("10", "alpha_c x beta_c = 1 x 3 minimal FHF spaces, all hazardous")
    benchmark(lambda: find_mic_dyn_haz_2level(cover))


def test_zz_emit_gallery(benchmark):
    # Runs last (alphabetical): print the accumulated gallery.
    assert len(GALLERY) >= 10
    emit(
        "figures",
        render_table(
            ["Figure", "Reproduced claim"],
            GALLERY,
            title="Figures 2-10 — hazard example gallery",
        ),
    )
    cover = Cover.from_strings(["w'xz", "w'xy", "xyz"], W)
    benchmark(lambda: find_mic_dyn_haz_2level(cover))
