"""The whole-table hazard oracle against the per-state loops it replaced.

:func:`repro.hazards.multilevel.transition_has_hazard` decides the event
lattice with mask arithmetic, and :func:`repro.hazards.transition
.static_fhf` / :func:`~repro.hazards.transition.dynamic_fhf` test one
truth table over the transition space.  The straightforward versions
they replaced live here as references: the lattice walked state by
state, the static test by cover tautology, and the dynamic test minterm
by minterm.

A seeded stream of random expressions over 1–7 variables, labelled by
:func:`~repro.boolean.paths.label_expression` so that vacuous products
and reconvergent paths occur, is checked on every ordered transition.
:func:`repro.hazards.witness.glitch_schedule`, the independent per-state
search the certifier replays, must find a glitch exactly where the
oracle reports a logic hazard on a function-hazard-free transition.

:func:`repro.hazards.oracle.classify_all` decides each static transition
cube once and each unordered dynamic pair once; on the same stream it
must yield exactly what :func:`~repro.hazards.oracle.classify_transition`
returns on every ordered transition, and the two facts its reuse rests
on are checked on ``classify_transition`` itself.
"""

from __future__ import annotations

import random

import pytest

from repro.boolean import truthtable as tt
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.expr import And, Const, Expr, Lit, Not, Or, Var
from repro.boolean.paths import (
    LabeledLiteral,
    LabeledProduct,
    LabeledSop,
    label_expression,
)
from repro.hazards.multilevel import MAX_EVENTS, transition_has_hazard
from repro.hazards.oracle import (
    TransitionKind,
    TransitionVerdict,
    all_transitions,
    classify_all,
    classify_transition,
)
from repro.hazards.transition import (
    dynamic_fhf,
    lattice_masks,
    static_fhf,
    transition_space,
)
from repro.hazards.witness import glitch_schedule

SEED = 9


# ----------------------------------------------------------------------
# References: the per-state and per-minterm loops
# ----------------------------------------------------------------------


def reference_event_masks(lsop: LabeledSop, start: int, end: int):
    """Products as (need-switched, need-unswitched) event masks, and the
    ``(variable, path) -> event`` numbering."""
    changing = start ^ end
    events: dict[tuple[str, int], int] = {}
    masks = []
    for product in lsop.products:
        need_switched = 0
        need_unswitched = 0
        alive = True
        for lit in product.literals:
            bit = 1 << lsop.index[lit.name]
            if not changing & bit:
                if bool(start & bit) != lit.positive:
                    alive = False
                    break
                continue
            event = events.setdefault((lit.name, lit.path), len(events))
            if bool(end & bit) == lit.positive:
                need_switched |= 1 << event
            else:
                need_unswitched |= 1 << event
        if alive:
            masks.append((need_switched, need_unswitched))
    if len(events) > MAX_EVENTS:
        raise ValueError(
            f"{len(events)} changing path literals exceed the lattice limit"
        )
    return masks, events


def reference_transition_has_hazard(lsop: LabeledSop, start: int, end: int) -> bool:
    """The event lattice walked state by state, with a subset DP."""
    masks, events = reference_event_masks(lsop, start, end)
    k = len(events)
    plain = lsop.plain_cover()
    f_start = plain.evaluate(start)
    f_end = plain.evaluate(end)
    nstates = 1 << k
    out = bytearray(nstates)
    for s in range(nstates):
        for need_sw, need_un in masks:
            if (s & need_sw) == need_sw and not (s & need_un):
                out[s] = 1
                break
    if f_start == f_end:
        target = 1 if f_start else 0
        return any(out[s] != target for s in range(nstates))
    # ``seen[s]``: some subset of s evaluates to the final value; a
    # state that shows the initial value after that is a glitch.
    mark = 1 if not f_start else 0
    seen = bytearray(nstates)
    for s in range(nstates):
        if out[s] == mark:
            seen[s] = 1
        else:
            for e in range(k):
                if s >> e & 1 and seen[s ^ (1 << e)]:
                    seen[s] = 1
                    break
        if out[s] != mark and seen[s]:
            return True
    return False


def reference_glitch_schedule(lsop: LabeledSop, start: int, end: int):
    """The replay search over a table of every lattice state: the first
    state (in numeric order) that shows the wrong value, or that falls
    back after one of its subsets showed the end value, and the path
    order through it."""
    masks, events = reference_event_masks(lsop, start, end)
    k = len(events)
    out = [
        any(s & sw == sw and not s & un for sw, un in masks)
        for s in range(1 << k)
    ]
    plain = lsop.plain_cover()
    f_start, f_end = plain.evaluate(start), plain.evaluate(end)
    stages = None
    if f_start == f_end:
        stages = next(([s] for s in range(1 << k) if out[s] != f_start), None)
    else:
        first: dict[int, int] = {}  # state -> its subset that showed f_end
        for s in range(1 << k):
            if out[s] == f_end:
                first[s] = s
                continue
            below = [s ^ 1 << e for e in range(k) if s >> e & 1]
            origin = next((first[b] for b in below if b in first), None)
            if origin is not None:
                stages = [origin, s]
                break
    if stages is None:
        return None
    keys = sorted(events, key=events.get)
    order, done = [], 0
    for stage in stages + [(1 << k) - 1]:
        order += [keys[e] for e in range(k) if (stage & ~done) >> e & 1]
        done |= stage
    return order


def reference_static_fhf(cover: Cover, space: Cube, value: bool) -> bool:
    if value:
        return cover.contains_cube(space)
    return not any(cube.intersects(space) for cube in cover)


def reference_dynamic_fhf(cover: Cover, start: int, end: int) -> bool:
    """Every ON point p of the space has f ≡ 1 over T[p, end] (oriented
    so that f rises)."""
    if cover.evaluate(start):
        start, end = end, start
    nvars = cover.nvars
    end_cube = Cube.minterm(end, nvars)
    for point in transition_space(start, end, nvars).minterms():
        if cover.evaluate(point):
            tail = Cube.minterm(point, nvars).supercube(end_cube)
            if not cover.contains_cube(tail):
                return False
    return True


def reference_verdict(lsop: LabeledSop, start: int, end: int, logic) -> object:
    """The classification, given the reference lattice's ``outcome``.

    A function hazard precludes a logic hazard (section 2.3), so the
    lattice, and its limit, count only on a function-hazard-free
    transition.
    """
    plain = lsop.plain_cover()
    f_start = plain.evaluate(start)
    if f_start == plain.evaluate(end):
        kind = TransitionKind.STATIC_1 if f_start else TransitionKind.STATIC_0
        space = transition_space(start, end, plain.nvars)
        fhf = reference_static_fhf(plain, space, f_start)
    else:
        kind = TransitionKind.DYNAMIC
        fhf = reference_dynamic_fhf(plain, start, end)
    if not fhf:
        return TransitionVerdict(start, end, kind, True, False)
    if isinstance(logic, str):
        return logic
    return TransitionVerdict(start, end, kind, False, logic)


def outcome(func, *args):
    """``func(*args)``, or the ``ValueError`` message it raised."""
    try:
        return func(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# ----------------------------------------------------------------------
# Random labelled expressions
# ----------------------------------------------------------------------


def random_expr(rng: random.Random, names: list[str], depth: int) -> Expr:
    """A random expression; leaves repeat, so paths reconverge."""
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(names)
        pick = rng.random()
        if pick < 0.45:
            return Var(name)
        if pick < 0.95:
            return Lit(name, rng.random() < 0.5)
        return Const(rng.random() < 0.5)
    pick = rng.random()
    if pick < 0.15:
        return Not(random_expr(rng, names, depth - 1))
    terms = [random_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    return And(terms) if pick < 0.6 else Or(terms)


#: (support width, expression depth) of each case.  Wide supports are
#: rare because every ordered transition is checked: 16 256 of them at 7
#: variables.
SHALLOW = (
    [(1, 2)] * 3 + [(2, 2)] * 8 + [(3, 3)] * 15 + [(4, 3)] * 15
    + [(5, 3)] * 8 + [(6, 3), (6, 3), (7, 3)]
)
#: Deep cases reconverge enough to fill the lattice up to, and past,
#: :data:`MAX_EVENTS`.
DEEP = [(3, 4)] * 8 + [(4, 4)] * 2


def random_lsops(cases):
    """One seeded labelled expression per (width, depth) case."""
    for index, (nvars, depth) in enumerate(cases):
        rng = random.Random(f"{SEED}/{depth}/{index}")
        names = [f"x{i}" for i in range(nvars)]
        expr = random_expr(rng, names, rng.randint(depth - 1, depth))
        yield label_expression(expr, names)


class TestAgainstReferences:
    def test_every_transition_matches_the_references(self):
        checked = vacuous = reconvergent = largest = refused = 0
        widths = set()
        for lsop in random_lsops(SHALLOW + DEEP):
            vacuous += bool(lsop.vacuous_products())
            reconvergent += any(
                lit.path > 0 for p in lsop.products for lit in p.literals
            )
            widths.add(lsop.nvars)
            plain = lsop.plain_cover()
            for start, end in all_transitions(lsop.nvars):
                events = outcome(reference_event_masks, lsop, start, end)
                if isinstance(events, str):
                    refused += 1
                else:
                    largest = max(largest, len(events[1]))
                logic = outcome(reference_transition_has_hazard, lsop, start, end)
                assert outcome(transition_has_hazard, lsop, start, end) == logic
                f_start = plain.evaluate(start)
                if f_start == plain.evaluate(end):
                    space = transition_space(start, end, lsop.nvars)
                    assert static_fhf(plain, space, f_start) == (
                        reference_static_fhf(plain, space, f_start)
                    )
                else:
                    assert dynamic_fhf(plain, start, end) == (
                        reference_dynamic_fhf(plain, start, end)
                    )
                assert outcome(classify_transition, lsop, start, end) == (
                    reference_verdict(lsop, start, end, logic)
                )
                checked += 1
        # The stream reaches what the lattice exists for.
        assert widths == set(range(1, 8))
        assert vacuous >= 10 and reconvergent >= 30
        assert largest >= 16
        assert checked > 35_000

    def test_glitch_schedule_exists_exactly_on_logic_hazards(self):
        """The certifier's replay search is independent of the oracle:
        on every function-hazard-free transition it finds a glitching
        order iff the oracle reports a logic hazard.  Walking the
        lattice lazily, it finds the order a walk over a table of every
        state finds."""
        hazards = clean = 0
        for lsop in random_lsops(SHALLOW):
            if lsop.nvars > 5:
                continue
            for start, end in all_transitions(lsop.nvars):
                verdict = classify_transition(lsop, start, end)
                if verdict.function_hazard:
                    continue
                schedule = glitch_schedule(lsop, start, end)
                assert (schedule is None) == (not verdict.logic_hazard)
                assert schedule == reference_glitch_schedule(lsop, start, end)
                hazards += verdict.logic_hazard
                clean += not verdict.logic_hazard
        assert hazards >= 100 and clean >= 1000


def subsets(mask: int):
    """Every subset of a bit mask."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def per_transition(lsop: LabeledSop) -> list:
    """``classify_transition`` on every ordered transition, ``None``
    where it refuses the event lattice."""
    verdicts = []
    for start, end in all_transitions(lsop.nvars):
        verdict = outcome(classify_transition, lsop, start, end)
        verdicts.append(None if isinstance(verdict, str) else verdict)
    return verdicts


def shape(outcome_):
    """A verdict without its endpoints, or the refusal message."""
    if isinstance(outcome_, str):
        return outcome_
    return outcome_.kind, outcome_.function_hazard, outcome_.logic_hazard


class TestSharedDecisions:
    def test_classify_all_is_the_per_transition_loop(self):
        for lsop in random_lsops(SHALLOW + DEEP):
            assert list(classify_all(lsop)) == per_transition(lsop)

    def test_static_verdicts_belong_to_the_cube_and_all_reverse(self):
        """Every corner pair of a cube on which f is constant gets the
        same static verdict, and reversing a transition keeps its kind,
        function hazard and logic hazard (or its refusal)."""
        constant_cubes = hazardous_cubes = 0
        for lsop in random_lsops(SHALLOW + DEEP):
            nvars = lsop.nvars
            plain = lsop.plain_cover()
            verdicts = {
                (start, end): shape(outcome(classify_transition, lsop, start, end))
                for start, end in all_transitions(nvars)
            }
            for (start, end), verdict in verdicts.items():
                assert verdicts[end, start] == verdict
            for changing in range(1, 1 << nvars):
                for fixed in range(1 << nvars):
                    if fixed & changing:
                        continue
                    cube = [fixed | sub for sub in subsets(changing)]
                    if len({plain.evaluate(point) for point in cube}) > 1:
                        continue
                    shared = {verdicts[point, point ^ changing] for point in cube}
                    assert len(shared) == 1
                    constant_cubes += 1
                    (verdict,) = shared
                    hazardous_cubes += not isinstance(verdict, str) and verdict[2]
        assert constant_cubes > 5_000 and hazardous_cubes > 400


def sop(*products: list[tuple[str, int, bool]], names: list[str]) -> LabeledSop:
    return LabeledSop(
        [
            LabeledProduct(tuple(LabeledLiteral(*lit) for lit in product))
            for product in products
        ],
        names,
    )


class TestLatticeLimit:
    """The limit counts every changing path literal the scan meets,
    including those of a product a later fixed literal kills."""

    NAMES = ["a", "b", "c"]

    def lsop(self, dead_paths: int, live_paths: int) -> LabeledSop:
        dead = [("a", i, True) for i in range(dead_paths)] + [("b", 0, True)]
        live = [("c", i, i % 2 == 0) for i in range(live_paths)]
        return sop(dead, live, names=self.NAMES)

    @pytest.mark.parametrize(
        "dead_paths,live_paths", [(12, 8), (12, 9), (0, 20), (0, 21), (21, 1)]
    )
    def test_limit_is_the_reference_limit(self, dead_paths, live_paths):
        lsop = self.lsop(dead_paths, live_paths)
        start, end = 0b000, 0b101  # a and c change; b stays 0
        expected = outcome(reference_transition_has_hazard, lsop, start, end)
        assert outcome(transition_has_hazard, lsop, start, end) == expected
        assert outcome(classify_transition, lsop, start, end) == (
            reference_verdict(lsop, start, end, expected)
        )
        assert isinstance(expected, str) == (dead_paths + live_paths > MAX_EVENTS)
        # classify_all yields None exactly where classify_transition
        # refuses, sharing each refusal across the cube's corners and
        # both directions.
        assert list(classify_all(lsop)) == per_transition(lsop)

    def test_the_largest_lattice_is_decided(self):
        # Twenty paths of one variable, both polarities: a vacuous
        # product that pulses while c is in transit.
        lsop = self.lsop(0, MAX_EVENTS)
        assert transition_has_hazard(lsop, 0b000, 0b100)
        assert reference_transition_has_hazard(lsop, 0b000, 0b100)


def test_lattice_masks_are_projection_tables():
    for k in range(9):
        up, down, full = lattice_masks(k)
        assert full == tt.table_mask(k)
        assert list(up) == [tt.var_table(i, k) for i in range(k)]
        assert [u | d for u, d in zip(up, down)] == [full] * k
        assert not any(u & d for u, d in zip(up, down))
