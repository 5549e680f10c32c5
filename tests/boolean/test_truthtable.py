"""Tests for truth-table utilities used by Boolean matching."""

import random

from hypothesis import given
from hypothesis import strategies as st

import repro.boolean.truthtable as tt
from repro.boolean.cover import Cover

from ..conftest import cover_strategy


class TestBasics:
    def test_var_table(self):
        table = tt.var_table(1, 3)
        for p in range(8):
            assert tt.evaluate(table, p) == bool(p >> 1 & 1)

    def test_from_callable(self):
        table = tt.from_callable(lambda p: p == 5, 3)
        assert table == 1 << 5

    @given(cover_strategy(4))
    def test_cofactor_semantics(self, cover):
        table = cover.truth_table()
        for var in range(4):
            for value in (False, True):
                cof = tt.cofactor(table, var, value, 4)
                for p in range(16):
                    fixed = (p | 1 << var) if value else (p & ~(1 << var))
                    assert tt.evaluate(cof, p) == cover.evaluate(fixed)

    @given(cover_strategy(4))
    def test_support_matches_dependence(self, cover):
        table = cover.truth_table()
        support = tt.support(table, 4)
        for var in range(4):
            flips = any(
                cover.evaluate(p) != cover.evaluate(p ^ (1 << var))
                for p in range(16)
            )
            assert (var in support) == flips


def cofactor_by_points(table, var, value, nvars):
    """Reference for ``tt.cofactor``: copy the kept half of each
    ``2^(var+1)``-bit period into both halves."""
    block = 1 << var
    result = 0
    for base in range(0, 1 << nvars, block << 1):
        lo = (table >> base) & ((1 << block) - 1)
        hi = (table >> (base + block)) & ((1 << block) - 1)
        keep = hi if value else lo
        result |= keep << base
        result |= keep << (base + block)
    return result


def depends_on_by_points(table, var, nvars):
    """Reference for ``tt.depends_on``: the two cofactors differ."""
    return cofactor_by_points(table, var, False, nvars) != cofactor_by_points(
        table, var, True, nvars
    )


def cofactor_signature_by_points(table, var, nvars):
    """Reference for ``tt.cofactor_signature``: count the on-set points
    on each side of ``var``."""
    zeros = ones = 0
    for point in range(1 << nvars):
        if table >> point & 1:
            if point >> var & 1:
                ones += 1
            else:
                zeros += 1
    return zeros, ones


class TestMaskKernelsAgainstLoops:
    """The mask-and-popcount kernels equal their per-point loops,
    including on tables carrying stray bits above ``2^nvars``."""

    @staticmethod
    def tables():
        rng = random.Random(20)
        for nvars in range(9):
            size = 1 << nvars
            for _ in range(60):
                table = rng.getrandbits(size)
                yield nvars, table
                # Stray bits above the table must be ignored.
                yield nvars, table | rng.getrandbits(24) << size

    def test_cofactor(self):
        for nvars, table in self.tables():
            for var in range(nvars):
                for value in (False, True):
                    assert tt.cofactor(table, var, value, nvars) == (
                        cofactor_by_points(table, var, value, nvars)
                    ), (nvars, table, var, value)

    def test_depends_on(self):
        for nvars, table in self.tables():
            for var in range(nvars):
                assert tt.depends_on(table, var, nvars) == (
                    depends_on_by_points(table, var, nvars)
                ), (nvars, table, var)

    def test_cofactor_signature(self):
        for nvars, table in self.tables():
            for var in range(nvars):
                assert tt.cofactor_signature(table, var, nvars) == (
                    cofactor_signature_by_points(table, var, nvars)
                ), (nvars, table, var)


class TestPermutation:
    def test_permute_swap(self):
        # f = x0 & !x1; swapping 0,1 gives !x0 & x1.
        table = tt.from_callable(lambda p: (p & 1) and not (p >> 1 & 1), 2)
        swapped = tt.permute(table, [1, 0], 2)
        assert tt.evaluate(swapped, 0b10)
        assert not tt.evaluate(swapped, 0b01)

    @given(cover_strategy(4), st.permutations(range(4)))
    def test_permute_is_bijection(self, cover, perm):
        table = cover.truth_table()
        inverse = [0] * 4
        for i, p in enumerate(perm):
            inverse[p] = i
        assert tt.permute(tt.permute(table, list(perm), 4), inverse, 4) == table

    @given(cover_strategy(4))
    def test_negate_input_involution(self, cover):
        table = cover.truth_table()
        assert tt.negate_input(tt.negate_input(table, 2, 4), 2, 4) == table


class TestSignatures:
    @given(cover_strategy(4), st.permutations(range(4)))
    def test_signature_is_permutation_invariant(self, cover, perm):
        table = cover.truth_table()
        assert tt.signature(table, 4) == tt.signature(
            tt.permute(table, list(perm), 4), 4
        )

    def test_symmetric_vars(self):
        table = tt.from_callable(lambda p: (p & 1) and (p >> 1 & 1), 3)  # x0&x1
        assert tt.symmetric_vars(table, 0, 1, 3)
        assert not tt.symmetric_vars(table, 0, 2, 3)

    def test_symmetry_classes_of_and3(self):
        table = tt.from_callable(lambda p: p == 7, 3)
        assert tt.symmetry_classes(table, 3) == [[0, 1, 2]]

    def test_symmetry_classes_of_mux(self):
        # mux(s=x0, a=x1, b=x2) — no two inputs interchangeable.
        table = tt.from_callable(
            lambda p: bool(p >> 1 & 1) if not (p & 1) else bool(p >> 2 & 1), 3
        )
        assert len(tt.symmetry_classes(table, 3)) == 3


class TestMatching:
    def test_self_match_includes_identity(self):
        table = tt.from_callable(lambda p: (p & 1) and not (p >> 2 & 1), 3)
        perms = list(tt.match_permutations(table, table, 3))
        assert (0, 1, 2) in perms

    def test_and_matches_under_any_permutation(self):
        and3 = tt.from_callable(lambda p: p == 7, 3)
        perms = list(tt.match_permutations(and3, and3, 3))
        assert len(perms) == 6  # fully symmetric

    def test_mismatched_ones_count_rejected_fast(self):
        f = tt.from_callable(lambda p: p == 7, 3)
        g = tt.from_callable(lambda p: p >= 6, 3)
        assert list(tt.match_permutations(f, g, 3)) == []

    @given(cover_strategy(4), st.permutations(range(4)))
    def test_match_recovers_permutation(self, cover, perm):
        target = tt.permute(cover.truth_table(), list(perm), 4)
        candidate = cover.truth_table()
        found = list(tt.match_permutations(target, candidate, 4))
        assert found, "a permuted table must match its source"
        for p in found:
            assert tt.permute(candidate, list(p), 4) == target

    def test_limit_respected(self):
        and3 = tt.from_callable(lambda p: p == 7, 3)
        assert len(list(tt.match_permutations(and3, and3, 3, limit=2))) == 2
