"""Tests for m.i.c. dynamic hazard analysis (Theorem 4.1, §4.2.1)."""

import random

from hypothesis import example, given, settings

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.paths import label_cover
from repro.hazards.dynamic import (
    cube_intersections,
    exhibits_mic_dynamic,
    find_mic_dyn_haz_2level,
    theorem41_condition,
)
from repro.hazards.oracle import (
    TransitionKind,
    all_transitions,
    classify_transition,
)
from repro.hazards.static1 import find_static1_hazards_complete
from repro.hazards.transition import dynamic_fhf, transition_space

from ..conftest import cover_strategy

W = ["w", "x", "y", "z"]
NAMES = ["a", "b", "c", "d", "e"]


def _absorbed_within(cover: Cover, space: Cube) -> bool:
    """Does one cube's part of ``space`` lie inside another cube's part?"""
    parts = [
        part
        for part in (cube.intersection(space) for cube in cover)
        if part is not None
    ]
    return any(
        i != j and outer.contains(inner)
        for i, inner in enumerate(parts)
        for j, outer in enumerate(parts)
    )


def _dynamic_logic_hazards(cover: Cover) -> list[tuple[int, int, bool, bool]]:
    """``(start, end, in_scope, characterized)`` per oracle dynamic hazard.

    ``characterized``: the transition space contains a §4 record's
    minimal space, or is the shadow of a static-1 hazard.  ``in_scope``:
    inside the transition space no cube's part lies inside another's.
    """
    nvars = cover.nvars
    lsop = label_cover(cover, NAMES[:nvars])
    records = find_mic_dyn_haz_2level(cover)
    static1 = find_static1_hazards_complete(cover)
    found = []
    for start, end in all_transitions(nvars):
        if cover.evaluate(start) == cover.evaluate(end):
            continue
        if not classify_transition(lsop, start, end).logic_hazard:
            continue
        space = transition_space(start, end, nvars)
        characterized = any(space.contains(h.space) for h in records)
        if not characterized:
            for h in static1:
                inter = h.transition.intersection(space)
                if inter is not None and not cover.single_cube_contains(inter):
                    characterized = True
                    break
        in_scope = not _absorbed_within(cover, space)
        found.append((start, end, in_scope, characterized))
    return found


def _seeded_cover(rng: random.Random, nvars: int, max_cubes: int) -> Cover:
    """A random cover drawn like ``cover_strategy``, from a seeded rng."""
    cubes = [
        Cube(rng.randint(1, (1 << nvars) - 1), rng.randint(0, (1 << nvars) - 1),
             nvars)
        for _ in range(rng.randint(1, max_cubes))
    ]
    return Cover(cubes, nvars).dedup()


class TestPaperExamples:
    def test_figure8_dynamic_hazard(self):
        # f = w'xz + w'xy + xyz; transition alpha->gamma (X rises, Z
        # falls) can pulse cubes w'xz / xyz before w'xy holds.
        cover = Cover.from_strings(["w'xz", "w'xy", "xyz"], W)
        # alpha = w'x'y z (f=0), gamma = w' x y z' (f=1)
        alpha = 0b1100  # z=1,y=1,x=0,w=0 (bit i = var i: w=0,x=1,y=2,z=3)
        gamma = 0b0110  # x=1,y=1
        assert cover.evaluate(gamma)
        assert not cover.evaluate(alpha)
        assert dynamic_fhf(cover, alpha, gamma)
        assert exhibits_mic_dynamic(cover, alpha, gamma)

    def test_figure8_safe_transition(self):
        # T[beta, delta] with delta = w'xyz: every cube of f contains
        # delta, so no cube can pulse — condition 2 fails, no hazard.
        cover = Cover.from_strings(["w'xz", "w'xy", "xyz"], W)
        beta = 0b0011   # w x y' z' — f = 0
        delta = 0b1110  # w' x y z — f = 1
        assert not cover.evaluate(beta)
        assert cover.evaluate(delta)
        space = transition_space(beta, delta, 4)
        for cube in cover:
            if cube.intersects(space):
                assert cube.contains_point(delta)
        assert not theorem41_condition(cover, beta, delta)
        if dynamic_fhf(cover, beta, delta):
            assert not exhibits_mic_dynamic(cover, beta, delta)

    def test_figure4_sop_structure_has_dynamic_hazard(self):
        # Figure 4: the two-cube structure wy + xy has a dynamic hazard
        # (e.g. w falls while y rises with x = 1: gate wy can pulse
        # before gate xy turns on), while the factored (w + x)·y —
        # whose single y wire feeds one AND gate — does not.  The
        # multilevel comparison lives in test_multilevel; here we check
        # the two-level procedure finds the hazard.
        names = ["w", "x", "y"]
        cover = Cover.from_strings(["wy", "xy"], names)
        found = find_mic_dyn_haz_2level(cover)
        assert found, "wy + xy must have a dynamic hazard (Figure 4a)"
        start, end = 0b011, 0b110  # wxy' -> w'xy
        assert exhibits_mic_dynamic(cover, start, end)

    def test_figure10_alpha_beta_sets(self):
        # f with single irredundant intersection c = w'xyz.
        cover = Cover.from_strings(["w'xy", "w'xz", "xyz'", "w'yz"], W)
        inters = cube_intersections(cover)
        assert inters  # intersections exist around w'xyz

    def test_single_cube_has_no_dynamic_hazard(self):
        cover = Cover.from_strings(["wxyz"], W)
        assert not find_mic_dyn_haz_2level(cover)

    def test_disjoint_cubes_have_no_dynamic_hazard(self):
        cover = Cover.from_strings(["wx", "yz"], W)
        # transitions between them carry function hazards, not logic.
        assert not find_mic_dyn_haz_2level(cover)


class TestTheorem41AgainstOracle:
    @given(cover_strategy(4))
    @settings(max_examples=40, deadline=None)
    def test_theorem41_matches_event_lattice(self, cover):
        """Theorem 4.1 ⟺ the arbitrary-delay event-lattice semantics."""
        cover = cover.dedup()
        lsop = label_cover(cover, ["a", "b", "c", "d"])
        for start, end in all_transitions(4):
            if cover.evaluate(start) == cover.evaluate(end):
                continue
            if not dynamic_fhf(cover, start, end):
                continue
            verdict = classify_transition(lsop, start, end)
            assert exhibits_mic_dynamic(cover, start, end) == verdict.logic_hazard

    @given(cover_strategy(4))
    @settings(max_examples=40, deadline=None)
    def test_procedure_records_are_real_hazards(self, cover):
        lsop = label_cover(cover.dedup(), ["a", "b", "c", "d"])
        for hazard in find_mic_dyn_haz_2level(cover):
            verdict = classify_transition(lsop, hazard.start, hazard.end)
            assert verdict.kind == TransitionKind.DYNAMIC
            assert not verdict.function_hazard
            assert verdict.logic_hazard

    @given(cover_strategy(4, max_cubes=4))
    @example(Cover.from_strings(["a'b'", "a'd", "b'cd"], NAMES[:4]))
    @settings(max_examples=30, deadline=None)
    def test_hazards_characterized_when_no_absorbed_cubes(self, cover):
        """Completeness of the paper's procedure, per transition space.

        Every oracle-found dynamic hazard must contain a recorded
        minimal space or be the shadow of a static-1 hazard, unless
        one cube's part of its transition space lies inside another
        cube's part.  That absorption can happen with no cube absorbed
        globally (the pinned example); it is a documented gap, covered
        by the exhaustive filter.
        """
        for start, end, in_scope, characterized in _dynamic_logic_hazards(
            cover.dedup()
        ):
            assert characterized or not in_scope, (
                f"{cover.to_string(NAMES[:4])}: "
                f"{start:04b}->{end:04b} uncharacterized"
            )

    def test_restated_scope_holds_and_is_not_vacuous(self):
        # Seeded covers, so the floor on checked transitions is exact.
        # (Figure 8 cannot witness non-vacuity: its six dynamic hazards
        # all lie in spaces with an absorbed part.)
        checked = {}
        for nvars, count in ((4, 200), (5, 50)):
            rng = random.Random(f"theorem41/{nvars}")
            checked[nvars] = 0
            for _ in range(count):
                cover = _seeded_cover(rng, nvars, max_cubes=nvars)
                for start, end, in_scope, characterized in (
                    _dynamic_logic_hazards(cover)
                ):
                    if not in_scope:
                        continue
                    checked[nvars] += 1
                    assert characterized, (
                        f"{cover.to_string(NAMES[:nvars])}: "
                        f"{start:0{nvars}b}->{end:0{nvars}b} uncharacterized"
                    )
        assert checked[4] >= 1000 and checked[5] >= 1000, checked

    def test_absorption_inside_the_space_is_a_real_gap(self):
        # No cube of a'b' + a'd + b'cd contains another, but inside
        # T[0110, 1000] (a = 0) b'cd shrinks into both a'b' and a'd.
        # The oracle sees a dynamic logic hazard there in both
        # directions; neither a §4 record nor a static-1 shadow
        # characterizes it, and the restated scope excludes it.
        cover = Cover.from_strings(["a'b'", "a'd", "b'cd"], NAMES[:4])
        assert not any(
            i != j and outer.contains(inner)
            for i, inner in enumerate(cover.cubes)
            for j, outer in enumerate(cover.cubes)
        )
        hazards = {
            (start, end): (in_scope, characterized)
            for start, end, in_scope, characterized in (
                _dynamic_logic_hazards(cover)
            )
        }
        assert hazards[(0b0110, 0b1000)] == (False, False)
        assert hazards[(0b1000, 0b0110)] == (False, False)


class TestReverseDirectionSymmetry:
    @given(cover_strategy(4))
    @settings(max_examples=30, deadline=None)
    def test_dynamic_hazard_is_direction_symmetric(self, cover):
        # The offending cube misses the ON endpoint either way, so a
        # 0→1 hazard implies the 1→0 hazard and vice versa.
        cover = cover.dedup()
        for start, end in all_transitions(4):
            if cover.evaluate(start) == cover.evaluate(end):
                continue
            if not dynamic_fhf(cover, start, end):
                continue
            assert exhibits_mic_dynamic(cover, start, end) == exhibits_mic_dynamic(
                cover, end, start
            )
