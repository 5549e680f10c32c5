"""Tests for the two-level cover transforms and the covering solver."""

import pytest
from hypothesis import given, settings

from repro.boolean.cover import Cover
from repro.boolean.minimize import (
    CoveringProblem,
    make_hazard_free_static,
    simplify_for_sync,
)
from repro.hazards.static1 import has_static1_hazard

from ..conftest import cover_strategy

NAMES = ["a", "b", "c", "d"]


class TestCoveringProblem:
    def test_single_row(self):
        problem = CoveringProblem([{0, 1}], [3.0, 1.0])
        assert problem.solve() == [1]

    def test_essential_column(self):
        problem = CoveringProblem([{0}, {0, 1}], [1.0, 1.0])
        assert problem.solve() == [0]

    def test_classic_cyclic_core(self):
        rows = [{0, 1}, {1, 2}, {2, 3}, {3, 0}]
        solution = CoveringProblem(rows, [1.0] * 4).solve()
        assert len(solution) == 2
        for row in rows:
            assert row & set(solution)

    def test_weighted_prefers_cheap(self):
        problem = CoveringProblem([{0, 1}, {0, 1}], [10.0, 1.0])
        assert problem.solve() == [1]

    def test_uncoverable_row_rejected(self):
        with pytest.raises(ValueError):
            CoveringProblem([set()], [])

    def test_exactness_small_instances(self):
        import itertools
        import random

        rng = random.Random(5)
        for _ in range(30):
            ncols = rng.randint(2, 6)
            rows = [
                set(rng.sample(range(ncols), rng.randint(1, ncols)))
                for _ in range(rng.randint(1, 6))
            ]
            costs = [float(rng.randint(1, 5)) for _ in range(ncols)]
            got = CoveringProblem(rows, costs).solve()
            got_cost = sum(costs[c] for c in got)
            best = min(
                (
                    sum(costs[c] for c in subset)
                    for size in range(ncols + 1)
                    for subset in itertools.combinations(range(ncols), size)
                    if all(row & set(subset) for row in rows)
                ),
            )
            assert got_cost == pytest.approx(best)


class TestHazardRelatedTransforms:
    def test_simplify_for_sync_can_introduce_hazards(self):
        # The Figure-3 effect: simplification drops the consensus cube.
        cover = Cover.from_strings(["ab", "a'c", "bc"], NAMES)
        assert not has_static1_hazard(cover)
        simplified = simplify_for_sync(cover)
        assert simplified.equivalent(cover)
        assert has_static1_hazard(simplified)

    def test_make_hazard_free_static_adds_consensus(self):
        cover = Cover.from_strings(["ab", "a'c"], NAMES)
        repaired = make_hazard_free_static(cover)
        assert repaired.equivalent(cover)
        assert not has_static1_hazard(repaired)
        # The original gates are all still present.
        for cube in cover:
            assert cube in repaired.cubes

    @given(cover_strategy(4, max_cubes=4))
    @settings(max_examples=25, deadline=None)
    def test_make_hazard_free_static_property(self, cover):
        repaired = make_hazard_free_static(cover)
        assert repaired.equivalent(cover)
        assert not has_static1_hazard(repaired)
