"""Boolean matching of cluster functions against library cells.

CERES matches with Boolean techniques rather than structural pattern
matching: a cluster matches a cell iff their functions are equal under
an input-pin permutation.  Truth tables with permutation-invariant
signature pruning decide this cheaply at cell sizes.

A match's *pin binding* also transports the cell's hazard annotation
into cluster variable space, which is what the asynchronous filter of
section 3.2.2 compares against the subnetwork being replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..boolean import truthtable as tt
from ..boolean.expr import And, Const, Expr, Lit, Not, Or, Var
from ..library.cell import LibraryCell
from ..library.library import Library


@dataclass(frozen=True)
class Match:
    """A library cell matching a cluster function.

    ``binding[i]`` is the index (into the cluster's leaf list) of the
    signal driving cell pin ``i``.
    """

    cell: LibraryCell
    binding: tuple[int, ...]

    def fanin_names(self, leaves: Sequence[str]) -> list[str]:
        return [leaves[self.binding[i]] for i in range(len(self.binding))]


def expression_truth_table(expr: Expr, order: Sequence[str]) -> int:
    """Dense truth table of an expression over an explicit ordering of
    at most ``TT_MAX_VARS`` variables.

    One bit-parallel walk: each variable is bound to its projection
    mask (:func:`repro.boolean.truthtable.projection_masks`), so AND is
    ``&``, OR is ``|`` and NOT is ``full ^`` over whole tables instead
    of one evaluation per input point.
    """
    names = list(order)
    nvars = len(names)
    full = tt.table_mask(nvars)
    masks = dict(zip(names, tt.projection_masks(nvars)))

    def walk(node: Expr) -> int:
        if isinstance(node, Var):
            return masks[node.name]
        if isinstance(node, Lit):
            mask = masks[node.name]
            return mask if node.positive else full ^ mask
        if isinstance(node, And):
            table = full
            for term in node.terms:
                table &= walk(term)
            return table
        if isinstance(node, Or):
            table = 0
            for term in node.terms:
                table |= walk(term)
            return table
        if isinstance(node, Not):
            return full ^ walk(node.child)
        if isinstance(node, Const):
            return full if node.value else 0
        raise TypeError(f"cannot tabulate expression node {node!r}")

    return walk(expr)


def find_matches(library: Library, table: int, num_inputs: int) -> Iterator[Match]:
    """Yield matches of a cluster truth table against the library.

    Only cells with the same pin count and permutation-invariant
    signature are tried (constant and degenerate cluster functions never
    match a well-formed cell).  Each cell yields its first binding only.
    """
    mask = tt.table_mask(num_inputs)
    table &= mask
    if table == 0 or table == mask:
        return
    for cell in library.candidates(table, num_inputs):
        perm = next(
            tt.match_permutations(table, cell.truth_table(), num_inputs), None
        )
        if perm is not None:
            yield Match(cell, perm)


#: ``(table, nvars) -> matches``: one mapping run's answers, for one
#: library; an empty tuple records "no match".
MatchMemo = dict[tuple[int, int], tuple[Match, ...]]


def match_cluster(
    library: Library,
    expr: Expr,
    leaves: Sequence[str],
    memo: Optional[MatchMemo] = None,
) -> list[Match]:
    """All cell matches for a cluster given by expression + leaf order.

    A leaf count no cell has returns ``[]`` before any truth table is
    built.  A match list depends only on the cluster's ``(table,
    nvars)``, so with a ``memo`` each distinct function is matched
    once per run; the memo must not outlive the run's library.
    """
    nvars = len(leaves)
    if not library.by_pin_count(nvars):
        return []
    table = expression_truth_table(expr, leaves)
    key = (table, nvars)
    matches = memo.get(key) if memo is not None else None
    if matches is None:
        # Degenerate clusters (function ignores a leaf) rarely match a
        # cell of that pin count and would bind a floating pin; skip them.
        matches = ()
        if all(tt.depends_on(table, i, nvars) for i in range(nvars)):
            matches = tuple(find_matches(library, table, nvars))
        if memo is not None:
            memo[key] = matches
    return list(matches)
