"""Seeded property tests for cube/cover algebra against the
truth-table oracle.

Same discipline as ``tests/hazards/test_differential_random.py``: a
seeded ``random.Random`` stream of covers over up to five variables, so
every run replays the identical case list — no flaky fuzzing, no
hypothesis dependency.  Each algebraic operation on the compact
cube/cover representation is checked point-by-point against the
exhaustive semantics: a cube is its minterm set, a cover is the union,
and the truth table (``Cover.truth_table`` /
``repro.boolean.truthtable``) is ground truth.  The mapper's
bit-parallel ``expression_truth_table`` is checked against the
per-point ``Expr.evaluate`` loop it replaced, kept here as its oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.boolean import truthtable as tt
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.expr import And, Const, Expr, Lit, Not, Or, Var
from repro.mapping.match import expression_truth_table

CASES = 200
NVARS_CHOICES = (2, 3, 4, 5)
SEED = 0xDAC93


def random_cube(rng: random.Random, nvars: int) -> Cube:
    used = rng.randint(0, (1 << nvars) - 1)
    phase = rng.randint(0, (1 << nvars) - 1) & used
    return Cube(used, phase, nvars)


def random_cover(rng: random.Random, nvars: int, max_cubes: int = 4) -> Cover:
    cubes = [random_cube(rng, nvars) for _ in range(rng.randint(1, max_cubes))]
    return Cover(cubes, nvars)


def cases(seed_tag: str):
    """A reproducible stream of (rng, nvars) pairs, one per case."""
    rng = random.Random(f"{SEED}-{seed_tag}")
    for _ in range(CASES):
        yield rng, rng.choice(NVARS_CHOICES)


def points(nvars: int) -> range:
    return range(1 << nvars)


class TestCubeAlgebra:
    def test_intersection_is_pointwise_and(self):
        for rng, nvars in cases("cube-intersection"):
            a, b = random_cube(rng, nvars), random_cube(rng, nvars)
            met = a.intersection(b)
            for p in points(nvars):
                expected = a.contains_point(p) and b.contains_point(p)
                got = met is not None and met.contains_point(p)
                assert got == expected
            assert (met is not None) == a.intersects(b)

    def test_containment_is_minterm_subset(self):
        for rng, nvars in cases("cube-contains"):
            a, b = random_cube(rng, nvars), random_cube(rng, nvars)
            expected = all(
                a.contains_point(p) for p in points(nvars) if b.contains_point(p)
            )
            assert a.contains(b) == expected

    def test_consensus_bridges_the_two_cubes(self):
        for rng, nvars in cases("cube-consensus"):
            a, b = random_cube(rng, nvars), random_cube(rng, nvars)
            cons = a.consensus(b)
            if cons is None:
                continue
            union = Cover([a, b], nvars)
            # Consensus is an implicant of a + b …
            for p in points(nvars):
                if cons.contains_point(p):
                    assert union.evaluate(p)
            # … and, at distance one, covers points of both sides.
            assert any(a.contains_point(p) for p in cons.minterms())
            assert any(b.contains_point(p) for p in cons.minterms())

    def test_supercube_is_smallest_common_superset(self):
        for rng, nvars in cases("cube-supercube"):
            a, b = random_cube(rng, nvars), random_cube(rng, nvars)
            over = a.supercube(b)
            assert over.contains(a) and over.contains(b)
            # Minimality: every free variable of the supercube was
            # either free in an operand or disagrees between them.
            for var in range(nvars):
                bit = 1 << var
                if over.used & bit:
                    continue
                both_use = (a.used & bit) and (b.used & bit)
                assert not both_use or (a.phase ^ b.phase) & bit

    def test_cofactor_var_agrees_with_table_cofactor(self):
        for rng, nvars in cases("cube-cofactor"):
            cube = random_cube(rng, nvars)
            var = rng.randrange(nvars)
            value = rng.random() < 0.5
            table = Cover([cube], nvars).truth_table()
            expected = tt.cofactor(table, var, value, nvars)
            cofactored = cube.cofactor_var(var, value)
            got = (
                Cover([cofactored], nvars).truth_table()
                if cofactored is not None
                else 0
            )
            # The cube cofactor drops var, so its table must not depend
            # on it — compare on the var-independent tables.
            assert got == expected


class TestCoverAlgebra:
    def test_complement_is_pointwise_negation(self):
        for rng, nvars in cases("cover-complement"):
            cover = random_cover(rng, nvars)
            complement = cover.complement()
            mask = tt.table_mask(nvars)
            assert complement.truth_table() == (~cover.truth_table() & mask)

    def test_intersect_union_xor_match_tables(self):
        for rng, nvars in cases("cover-connectives"):
            a = random_cover(rng, nvars)
            b = random_cover(rng, nvars)
            ta, tb = a.truth_table(), b.truth_table()
            assert a.intersect(b).truth_table() == ta & tb
            assert a.union(b).truth_table() == ta | tb
            assert a.xor(b).truth_table() == ta ^ tb

    def test_containment_and_tautology_match_tables(self):
        for rng, nvars in cases("cover-containment"):
            a = random_cover(rng, nvars)
            b = random_cover(rng, nvars)
            ta, tb = a.truth_table(), b.truth_table()
            assert a.contains_cover(b) == (tb & ~ta == 0)
            assert a.is_tautology() == (ta == tt.table_mask(nvars))
            cube = random_cube(rng, nvars)
            cube_table = Cover([cube], nvars).truth_table()
            assert a.contains_cube(cube) == (cube_table & ~ta == 0)

    def test_rewrites_preserve_the_function(self):
        for rng, nvars in cases("cover-rewrites"):
            cover = random_cover(rng, nvars)
            table = cover.truth_table()
            assert cover.dedup().truth_table() == table
            assert cover.drop_contained().truth_table() == table
            assert cover.irredundant().truth_table() == table

    def test_expand_to_prime_yields_a_prime_implicant(self):
        for rng, nvars in cases("cover-expand"):
            cover = random_cover(rng, nvars)
            cube = rng.choice(list(cover))
            prime = cover.expand_to_prime(cube)
            assert prime.contains(cube)
            assert cover.is_implicant(prime)
            assert cover.is_prime(prime)

    def test_all_primes_is_the_complete_prime_set(self):
        for rng, nvars in cases("cover-primes"):
            if nvars > 4:
                nvars = 4  # keep the exhaustive check cheap
            cover = random_cover(rng, nvars)
            primes = cover.all_primes()
            # Soundness: each listed cube is a prime implicant.
            for prime in primes:
                assert cover.is_implicant(prime)
                assert cover.is_prime(prime)
            # Completeness: the primes cover the function exactly, and
            # every implicant lies under some prime.
            assert Cover(primes, nvars).truth_table() == cover.truth_table()
            for _ in range(10):
                cand = random_cube(rng, nvars)
                if cover.is_implicant(cand):
                    assert any(p.contains(cand) for p in primes)


def pointwise_truth_table(expr: Expr, order) -> int:
    """The oracle: one ``Expr.evaluate`` call per input point."""
    table = 0
    names = list(order)
    for point in range(1 << len(names)):
        env = {name: bool(point >> i & 1) for i, name in enumerate(names)}
        if expr.evaluate(env):
            table |= 1 << point
    return table


def random_expr(rng: random.Random, names: list[str], depth: int) -> Expr:
    """A random BFF over ``names``; leaves repeat (drawn with replacement)."""
    if depth == 0 or rng.random() < 0.25:
        name = rng.choice(names)
        pick = rng.random()
        if pick < 0.45:
            return Var(name)
        if pick < 0.9:
            return Lit(name, rng.random() < 0.5)
        return Const(rng.random() < 0.5)
    pick = rng.random()
    if pick < 0.2:
        return Not(random_expr(rng, names, depth - 1))
    terms = tuple(
        random_expr(rng, names, depth - 1) for _ in range(rng.randint(1, 4))
    )
    return And(terms) if pick < 0.6 else Or(terms)


class TestExpressionTruthTable:
    def test_walk_equals_pointwise_evaluation(self):
        rng = random.Random(f"{SEED}-expression-truth-table")
        for _ in range(CASES):
            nvars = rng.randint(1, 8)
            order = [f"x{i}" for i in range(nvars)]
            rng.shuffle(order)
            # Some expressions ignore part of the order (degenerate
            # clusters), and a nested And/Or may repeat a leaf.
            support = order[: rng.randint(1, nvars)]
            expr = random_expr(rng, support, rng.randint(1, 5))
            assert expression_truth_table(expr, order) == (
                pointwise_truth_table(expr, order)
            ), (expr, order)

    def test_missing_variable_raises(self):
        with pytest.raises(KeyError):
            expression_truth_table(Var("z"), ["a", "b"])
