"""Two-level cover transforms and the unate-covering solver.

Provides :func:`simplify_for_sync`, the simplification step of the
*synchronous* decomposition path (precisely what can introduce
static-1 hazards — Figure 3 of the paper), :func:`make_hazard_free_static`,
and the generic unate-covering solver used by the hazard-free minimizer
in :mod:`repro.burstmode.hfmin`.
"""

from __future__ import annotations

from typing import Sequence

from .cover import Cover


class CoveringProblem:
    """A weighted unate covering problem.

    ``rows[r]`` is the set of column indices able to cover row ``r``;
    every row must be covered by at least one chosen column.  Solved
    exactly by branch-and-bound with essential-column and row-dominance
    reductions; falls back to a greedy bound first so pruning is
    effective.
    """

    def __init__(self, rows: Sequence[set[int]], costs: Sequence[float]) -> None:
        self.rows = [set(r) for r in rows]
        self.costs = list(costs)
        for i, row in enumerate(self.rows):
            if not row:
                raise ValueError(f"row {i} cannot be covered by any column")

    def solve(self, max_nodes: int = 200_000) -> list[int]:
        """Return a minimum-cost column set (exact unless the node budget
        is exhausted, in which case the best solution found so far —
        at worst the greedy one — is returned)."""
        greedy = self._greedy()
        best_cost = sum(self.costs[c] for c in greedy)
        best = list(greedy)
        budget = [max_nodes]

        def recurse(rows: list[set[int]], chosen: list[int], cost: float) -> None:
            nonlocal best, best_cost
            if budget[0] <= 0:
                return
            budget[0] -= 1
            rows = [set(r) for r in rows]
            chosen = list(chosen)
            # Reductions to fixpoint.
            changed = True
            while changed and rows:
                changed = False
                # Essential columns: a row with a single candidate.
                for row in rows:
                    if len(row) == 1:
                        col = next(iter(row))
                        chosen.append(col)
                        cost += self.costs[col]
                        rows = [r for r in rows if col not in r]
                        changed = True
                        break
                if changed:
                    continue
                # Row dominance: drop rows that are supersets of others.
                keep: list[set[int]] = []
                for row in rows:
                    if any(other < row for other in rows):
                        changed = True
                        continue
                    keep.append(row)
                rows = keep
            if cost >= best_cost:
                return
            if not rows:
                best = chosen
                best_cost = cost
                return
            # Branch on the smallest row: any cover must pick one of its
            # columns, so trying each in turn is exhaustive.
            pivot = min(rows, key=len)
            for col in sorted(pivot, key=lambda c: self.costs[c]):
                recurse(
                    [r for r in rows if col not in r],
                    chosen + [col],
                    cost + self.costs[col],
                )

        recurse(self.rows, [], 0.0)
        return sorted(set(best))

    def _greedy(self) -> list[int]:
        rows = [set(r) for r in self.rows]
        chosen: list[int] = []
        while rows:
            counts: dict[int, int] = {}
            for row in rows:
                for col in row:
                    counts[col] = counts.get(col, 0) + 1
            col = min(
                counts, key=lambda c: (self.costs[c] / counts[c], self.costs[c], c)
            )
            chosen.append(col)
            rows = [r for r in rows if col not in r]
        return chosen


def simplify_for_sync(cover: Cover) -> Cover:
    """The synchronous decomposition's simplification step.

    Drops duplicate and single-cube-contained cubes and removes
    redundant cubes — hazard-*unsafe* (this is what Figure 3 warns
    about), matching what MIS-style ``tech_decomp`` does.
    """
    return cover.dedup().drop_contained().irredundant()


def make_hazard_free_static(cover: Cover) -> Cover:
    """Augment a cover with the consensus cubes needed to kill its
    static-1 hazards, without disturbing the existing cube list.

    A light-weight hazard-removal transform: repeatedly find uncovered
    adjacencies (see :mod:`repro.hazards.static1`) and add the missing
    prime.  The result keeps every original cube (gate), so other hazard
    classes are not made worse.
    """
    from ..hazards.static1 import find_static1_hazards  # late import: layering

    current = cover
    for _ in range(64):
        hazards = find_static1_hazards(current)
        if not hazards:
            return current
        addition = current.expand_to_prime(hazards[0].transition)
        current = current.with_cube(addition)
    raise RuntimeError("static hazard removal did not converge")
