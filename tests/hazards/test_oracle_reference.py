"""The hazard oracle against the per-state loops it replaced.

:func:`repro.hazards.multilevel.transition_has_hazard` decides the event
lattice in closed form, from each live product's rising and falling path
events, and :func:`repro.hazards.transition.static_fhf` /
:func:`~repro.hazards.transition.dynamic_fhf` test one truth table over
the transition space.  The straightforward versions they replaced live
here as references: the lattice walked state by state, the static test
by cover tautology, and the dynamic test minterm by minterm.

A seeded stream of random expressions over 1–7 variables, labelled by
:func:`~repro.boolean.paths.label_expression` so that vacuous products
and reconvergent paths occur, is checked on every ordered transition,
function-hazard transitions included.
:func:`repro.hazards.witness.glitch_schedule`, the independent per-state
search the certifier replays, must find a glitch exactly where the
oracle reports a logic hazard on a function-hazard-free transition.

:func:`repro.hazards.oracle.classify_all` reads
:func:`~repro.hazards.oracle.classify_rows`, which decides a whole start
row with masks and the remaining transitions once per cube or unordered
pair; on the same stream, at the lattice limit, and on the committed
benchmark mappings and catalog networks, its codes must decode to
exactly what :func:`~repro.hazards.oracle.classify_transition` returns
on every ordered transition, and the two facts its reuse rests on are
checked on ``classify_transition`` itself.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

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
    CODE_FH,
    CODE_KINDS,
    CODE_LH,
    TransitionKind,
    TransitionVerdict,
    all_transitions,
    classify_all,
    classify_transition,
    code_verdict,
    hazard_subset,
    hazardous_transitions,
    is_logic_hazard_free,
    verdict_code,
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
        """The certifier's replay search agrees with the oracle: on
        every function-hazard-free transition it finds a glitching
        order iff the oracle reports a logic hazard.  Reading the
        glitching states off one lattice table by mask arithmetic, it
        finds the order a walk over the states in numeric order finds."""
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


def decoded(lsop: LabeledSop) -> list:
    """``classify_all``'s codes decoded to verdicts, ``None`` kept."""
    return [
        None if code is None else code_verdict(start, end, code)
        for (start, end), code in zip(all_transitions(lsop.nvars), classify_all(lsop))
    ]


def shape(outcome_):
    """A verdict without its endpoints, or the refusal message."""
    if isinstance(outcome_, str):
        return outcome_
    return outcome_.kind, outcome_.function_hazard, outcome_.logic_hazard


def reference_subset(inner: list, outer: list):
    """``hazard_subset`` read off two per-transition verdict lists:
    ``"refused"`` where the walk meets a refusal it must raise."""
    for mine, theirs in zip(inner, outer):
        if mine is None:
            return "refused"
        if mine.logic_hazard:
            if theirs is None:
                return "refused"
            if not theirs.logic_hazard:
                return False
    return True


PERFBENCH_DATA = Path(__file__).resolve().parents[2] / "perfbench" / "data"


def committed_lsops(max_vars: int):
    """The labelled SOP of every distinct output of at most ``max_vars``
    support variables: the benchmark's designs and their committed
    mappings under both objectives, then the catalog networks."""
    from repro.api.facade import read_blif_text
    from repro.burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark

    designs = json.loads((PERFBENCH_DATA / "manifest.json").read_text())
    networks = []
    for entry in designs["designs"].values():
        files = [entry["source"]]
        files += [entry["mappings"][goal]["blif"] for goal in ("area", "delay")]
        for name in files:
            networks.append(read_blif_text((PERFBENCH_DATA / name).read_text()))
    networks += [synthesize_benchmark(name).netlist(name) for name in TABLE5_ORDER]
    seen = set()
    for network in networks:
        for output in network.outputs:
            expr = network.collapse(output)
            support = sorted(expr.support())
            if len(support) > max_vars:
                continue
            lsop = label_expression(expr, support)
            key = (str(lsop), tuple(support))
            if key not in seen:
                seen.add(key)
                yield lsop


class TestSharedDecisions:
    def test_classify_all_is_the_per_transition_loop(self):
        """Decoded, the codes are the per-transition verdicts, and
        ``None`` stands exactly where ``classify_transition`` raises."""
        codes = set()
        for lsop in random_lsops(SHALLOW + DEEP):
            verdicts = per_transition(lsop)
            assert decoded(lsop) == verdicts
            codes |= {verdict_code(v) for v in verdicts if v is not None}
        # Every kind shows up clean, with a function hazard and with a
        # logic hazard.
        assert codes == {
            kind << 2 | bits
            for kind in range(len(CODE_KINDS))
            for bits in (0, CODE_FH, CODE_LH)
        }

    def test_committed_outputs(self):
        """The same on every output of at most 7 variables of the
        benchmark's committed ACTEL mappings, their sources and the
        catalog networks, whose lattices reach the limit."""
        checked = refused = 0
        for lsop in committed_lsops(7):
            verdicts = per_transition(lsop)
            assert decoded(lsop) == verdicts
            checked += len(verdicts)
            refused += verdicts.count(None)
        assert checked > 500_000 and refused > 0

    def test_exhaustive_checks_read_the_codes(self):
        """The checks built on the rows (the hazardous transitions, in
        order; freedom; the subset test, refusals raised where the
        per-transition loop meets them) agree with the loop."""
        lsops = list(random_lsops(SHALLOW + DEEP))
        subsets_checked = 0
        for index, lsop in enumerate(lsops):
            verdicts = per_transition(lsop)
            first_refusal = next(
                (i for i, v in enumerate(verdicts) if v is None), len(verdicts)
            )
            hazards = [v for v in verdicts[:first_refusal] if v.logic_hazard]
            if first_refusal < len(verdicts):
                with pytest.raises(ValueError):
                    hazardous_transitions(lsop)
            else:
                assert hazardous_transitions(lsop) == hazards
            if hazards:
                assert not is_logic_hazard_free(lsop)
            elif first_refusal < len(verdicts):
                with pytest.raises(ValueError):
                    is_logic_hazard_free(lsop)
            else:
                assert is_logic_hazard_free(lsop)
            # The subset test against the next expression of the same
            # width, and against itself.
            for other in (lsop, lsops[(index + 1) % len(lsops)]):
                if other.nvars != lsop.nvars:
                    continue
                expected = reference_subset(verdicts, per_transition(other))
                result = outcome(hazard_subset, lsop, other)
                if expected == "refused":
                    assert str(result).startswith("ValueError")
                else:
                    assert result == expected
                subsets_checked += 1
        assert subsets_checked > 60

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
        assert decoded(lsop) == per_transition(lsop)

    def test_the_largest_lattice_is_decided(self):
        # Twenty paths of one variable, both polarities: a vacuous
        # product that pulses while c is in transit.
        lsop = self.lsop(0, MAX_EVENTS)
        assert transition_has_hazard(lsop, 0b000, 0b100)
        assert reference_transition_has_hazard(lsop, 0b000, 0b100)


class TestClosedForm:
    """Hand-built labelled SOPs on which each closed form has a job."""

    def agree(self, lsop: LabeledSop, start: int, end: int) -> bool:
        """The closed form's verdict, checked against the lattice walk
        in both directions."""
        verdict = transition_has_hazard(lsop, start, end)
        assert verdict == reference_transition_has_hazard(lsop, start, end)
        assert transition_has_hazard(lsop, end, start) == verdict
        assert reference_transition_has_hazard(lsop, end, start) == verdict
        return verdict

    def test_vacuous_static_0_pulse(self):
        # a#0·a'#1·b never holds, but pulses while a is in transit.
        lsop = sop([("a", 0, True), ("a", 1, False), ("b", 0, True)], names=["a", "b"])
        assert self.agree(lsop, 0b10, 0b11)  # b = 1: the product is live
        assert not self.agree(lsop, 0b00, 0b01)  # b = 0 kills it
        codes = dict(zip(all_transitions(2), classify_all(lsop)))
        assert codes[0b10, 0b11] == CODE_LH  # static-0, no function hazard
        assert codes[0b00, 0b01] == 0

    def test_static_1_needs_a_product_free_of_changing_literals(self):
        names = ["a", "b"]
        # a·b + a·b' across b's change: each product has a changing
        # literal, so the output can drop; adding a covers it.
        ab = [("a", 0, True), ("b", 0, True)]
        ab_ = [("a", 1, True), ("b", 1, False)]
        lsop = sop(ab, ab_, names=names)
        assert self.agree(lsop, 0b01, 0b11)
        covered = sop(ab, ab_, [("a", 2, True)], names=names)
        assert not self.agree(covered, 0b01, 0b11)

    def test_dynamic_witness_needs_other_products_falling_events(self):
        """a·b' + a·c' + b·c from 000 to 111, with a's path shared by
        the first two products.  Once a rises, both hold the output at
        1, and no single falling event turns both off: the glitch needs
        c#0 to fall first (the witness state {a, c#0}, where a·b' holds
        the output alone), then b#0."""
        names = ["a", "b", "c"]
        lsop = sop(
            [("a", 0, True), ("b", 0, False)],
            [("a", 0, True), ("c", 0, False)],
            [("b", 1, True), ("c", 1, True)],
            names=names,
        )
        assert lsop.path_wires()[0] == ("a", 0)  # one wire, two products
        assert classify_transition(lsop, 0b000, 0b111) == TransitionVerdict(
            0b000, 0b111, TransitionKind.DYNAMIC, False, True
        )
        assert self.agree(lsop, 0b000, 0b111)
        schedule = glitch_schedule(lsop, 0b000, 0b111)
        assert schedule.index(("c", 0)) < schedule.index(("b", 0))

    def test_shared_paths_switch_once(self):
        """a·(b + c) distributes to a#0·b#0 + a#0·c#0: the one wire
        a#0 switches once for both products, so the burst a↑ b↓ with
        c = 1 is clean (a·c holds the output once a has risen).  A wire
        read in both phases is no labelling, and is refused."""
        a, b, c = Var("a"), Var("b"), Var("c")
        shared = label_expression(And([a, Or([b, c])]), ["a", "b", "c"])
        assert len(shared.path_wires()) == 3
        for start, end in all_transitions(3):
            self.agree(shared, start, end)
        assert not transition_has_hazard(shared, 0b110, 0b101)
        both = sop([("a", 0, True), ("b", 0, True)], [("a", 0, False)], names=["a", "b"])
        with pytest.raises(TypeError):
            both.path_literals()


def test_lattice_masks_are_projection_tables():
    for k in range(9):
        up, down, full = lattice_masks(k)
        assert full == tt.table_mask(k)
        assert list(up) == [tt.var_table(i, k) for i in range(k)]
        assert [u | d for u, d in zip(up, down)] == [full] * k
        assert not any(u & d for u, d in zip(up, down))
