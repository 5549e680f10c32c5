"""Dense truth tables for Boolean matching.

A function of ``n ≤ TT_MAX_VARS`` variables is stored as a single
integer whose bit ``p`` is ``f(p)``.  The technology mapper's Boolean
matching (CERES-style) compares a cluster function against a library
cell function under input permutation; truth tables plus symmetry /
signature pruning make that comparison cheap at cell sizes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterator, Optional, Sequence

TT_MAX_VARS = 14


def table_mask(nvars: int) -> int:
    """All-ones truth table for ``nvars`` variables."""
    return (1 << (1 << nvars)) - 1


def var_table(index: int, nvars: int) -> int:
    """Truth table of the projection function ``x_index``."""
    if not 0 <= index < nvars:
        raise ValueError("variable index out of range")
    table = 0
    for point in range(1 << nvars):
        if point >> index & 1:
            table |= 1 << point
    return table


@lru_cache(maxsize=None)
def projection_masks(nvars: int) -> tuple[int, ...]:
    """``var_table(i, nvars)`` for every ``i``, computed once per ``nvars``.

    Bit-parallel evaluation binds variable ``i`` to ``masks[i]``: AND,
    OR and NOT of whole tables are then ``&``, ``|`` and
    ``table_mask(nvars) ^``.  At most ``TT_MAX_VARS + 1`` entries.
    """
    if not 0 <= nvars <= TT_MAX_VARS:
        raise ValueError(f"nvars must be in 0..{TT_MAX_VARS}, got {nvars}")
    return tuple(var_table(index, nvars) for index in range(nvars))


def from_callable(func: Callable[[int], bool], nvars: int) -> int:
    table = 0
    for point in range(1 << nvars):
        if func(point):
            table |= 1 << point
    return table


def evaluate(table: int, point: int) -> bool:
    return bool(table >> point & 1)


def cofactor(table: int, var: int, value: bool, nvars: int) -> int:
    """Truth table of the cofactor, still over ``nvars`` variables.

    The cofactored variable becomes a don't-care dimension (both halves
    equal), which keeps all tables in one universe.  Bits of ``table``
    above ``2^nvars`` are ignored; ``nvars <= TT_MAX_VARS``.
    """
    high = projection_masks(nvars)[var]
    shift = 1 << var
    if value:
        half = table & high
        return half | half >> shift
    half = table & (table_mask(nvars) ^ high)
    return half | half << shift


def depends_on(table: int, var: int, nvars: int) -> bool:
    """True iff the function actually depends on variable ``var``.

    Bit ``p`` of ``table ^ table >> 2^var`` compares ``f(p)`` with
    ``f(p | 2^var)``; only the points where ``var`` is 0 are read.
    """
    low = table_mask(nvars) ^ projection_masks(nvars)[var]
    return bool((table ^ table >> (1 << var)) & low)


def support(table: int, nvars: int) -> list[int]:
    return [v for v in range(nvars) if depends_on(table, v, nvars)]


def permute(table: int, perm: Sequence[int], nvars: int) -> int:
    """Apply an input permutation: new variable ``perm[i]`` = old ``i``.

    ``perm`` maps old indices to new indices and must be a permutation
    of ``range(nvars)``.
    """
    result = 0
    for point in range(1 << nvars):
        if table >> point & 1:
            new_point = 0
            for i in range(nvars):
                if point >> i & 1:
                    new_point |= 1 << perm[i]
            result |= 1 << new_point
    return result


def negate_input(table: int, var: int, nvars: int) -> int:
    """Truth table of f with input ``var`` complemented."""
    result = 0
    bit = 1 << var
    for point in range(1 << nvars):
        if table >> point & 1:
            result |= 1 << (point ^ bit)
    return result


def ones_count(table: int, nvars: int) -> int:
    return (table & table_mask(nvars)).bit_count()


def cofactor_signature(table: int, var: int, nvars: int) -> tuple[int, int]:
    """(|f_{var=0}|, |f_{var=1}|) minterm counts — a permutation-covariant
    per-variable signature used to prune the matching search."""
    high = projection_masks(nvars)[var]
    return (
        (table & (table_mask(nvars) ^ high)).bit_count(),
        (table & high).bit_count(),
    )


def signature(table: int, nvars: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Permutation-invariant signature: total ones + sorted cofactor pairs."""
    pairs = sorted(cofactor_signature(table, v, nvars) for v in range(nvars))
    return ones_count(table, nvars), tuple(pairs)


def symmetric_vars(table: int, a: int, b: int, nvars: int) -> bool:
    """True iff the function is invariant under swapping inputs a and b."""
    perm = list(range(nvars))
    perm[a], perm[b] = perm[b], perm[a]
    return permute(table, perm, nvars) == table


def symmetry_classes(table: int, nvars: int) -> list[list[int]]:
    """Partition the inputs into classes of mutually swappable variables."""
    classes: list[list[int]] = []
    for var in range(nvars):
        placed = False
        for cls in classes:
            if symmetric_vars(table, cls[0], var, nvars):
                cls.append(var)
                placed = True
                break
        if not placed:
            classes.append([var])
    return classes


def match_permutations(
    target: int,
    candidate: int,
    nvars: int,
    limit: Optional[int] = None,
) -> Iterator[tuple[int, ...]]:
    """Yield permutations ``perm`` with ``permute(candidate, perm) == target``.

    ``perm[i]`` gives the target variable driven by candidate input
    ``i``.  Signature pruning: candidate input ``i`` can only map to a
    target variable with the same cofactor signature.
    """
    if ones_count(target, nvars) != ones_count(candidate, nvars):
        return
    target_sig = [cofactor_signature(target, v, nvars) for v in range(nvars)]
    cand_sig = [cofactor_signature(candidate, v, nvars) for v in range(nvars)]
    buckets: dict[tuple[int, int], list[int]] = {}
    for v in range(nvars):
        buckets.setdefault(target_sig[v], []).append(v)
    # Quick multiset check.
    cand_counts: dict[tuple[int, int], int] = {}
    for sig in cand_sig:
        cand_counts[sig] = cand_counts.get(sig, 0) + 1
    for sig, members in buckets.items():
        if cand_counts.get(sig, 0) != len(members):
            return
    count = 0
    for perm in _assignments(cand_sig, buckets, nvars):
        if permute(candidate, perm, nvars) == target:
            yield tuple(perm)
            count += 1
            if limit is not None and count >= limit:
                return


def _assignments(
    cand_sig: list[tuple[int, int]],
    buckets: dict[tuple[int, int], list[int]],
    nvars: int,
) -> Iterator[list[int]]:
    """Enumerate signature-respecting injective assignments."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, sig in enumerate(cand_sig):
        groups.setdefault(sig, []).append(i)
    sigs = list(groups)
    per_sig_perms = []
    for sig in sigs:
        per_sig_perms.append(list(permutations(buckets[sig])))
    indices = [0] * len(sigs)
    while True:
        perm = [0] * nvars
        for gi, sig in enumerate(sigs):
            chosen = per_sig_perms[gi][indices[gi]]
            for src, dst in zip(groups[sig], chosen):
                perm[src] = dst
        yield perm
        # Odometer increment.
        pos = len(sigs) - 1
        while pos >= 0:
            indices[pos] += 1
            if indices[pos] < len(per_sig_perms[pos]):
                break
            indices[pos] = 0
            pos -= 1
        if pos < 0:
            return
