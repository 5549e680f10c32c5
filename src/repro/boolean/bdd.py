"""A small reduced ordered BDD engine.

CERES — the synchronous mapper the paper modifies — matches library
cells with Boolean techniques built on binary decision diagrams
(Mailhot & De Micheli).  This module provides the ROBDD substrate used
for functional verification of mapped networks and for satisfiability
queries inside the hazard analyses.

Nodes are integers (indices into the manager's node table); terminals
are ``BddManager.zero`` and ``BddManager.one``.  The classic unique
table + ``ite`` memoization structure keeps everything canonical.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence


class BddManager:
    """Shared-node ROBDD manager over variables ``0..nvars-1``."""

    def __init__(self, nvars: int) -> None:
        self.nvars = nvars
        # Node table: parallel arrays (var, low, high).  Terminals use a
        # sentinel variable index beyond every real variable.
        self._var: list[int] = [nvars, nvars]
        self._low: list[int] = [0, 1]
        self._high: list[int] = [0, 1]
        self.zero = 0
        self.one = 1
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._vars = [self._mk(i, self.zero, self.one) for i in range(nvars)]

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def var(self, index: int) -> int:
        """BDD of the single variable ``index``."""
        return self._vars[index]

    def literal(self, index: int, positive: bool) -> int:
        node = self._vars[index]
        return node if positive else self.negate(node)

    def cofactors(self, node: int, var: int) -> tuple[int, int]:
        """(low, high) cofactors of ``node`` with respect to ``var``."""
        if self._var[node] == var:
            return self._low[node], self._high[node]
        return node, node

    # ------------------------------------------------------------------
    # Core operator
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f·g + f'·h`` — the universal BDD operator."""
        if f == self.one:
            return g
        if f == self.zero:
            return h
        if g == h:
            return g
        if g == self.one and h == self.zero:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        var = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self.cofactors(f, var)
        g0, g1 = self.cofactors(g, var)
        h0, h1 = self.cofactors(h, var)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(var, low, high)
        self._ite_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, self.zero)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, self.one, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.negate(g), g)

    def negate(self, f: int) -> int:
        return self.ite(f, self.zero, self.one)

    def conjoin(self, nodes: Sequence[int]) -> int:
        result = self.one
        for node in nodes:
            result = self.apply_and(result, node)
        return result

    def disjoin(self, nodes: Sequence[int]) -> int:
        result = self.zero
        for node in nodes:
            result = self.apply_or(result, node)
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def restrict(self, f: int, var: int, value: bool) -> int:
        """Cofactor ``f`` by an assignment to one variable."""
        if self._var[f] > var:
            return f
        if self._var[f] == var:
            return self._high[f] if value else self._low[f]
        low = self.restrict(self._low[f], var, value)
        high = self.restrict(self._high[f], var, value)
        return self._mk(self._var[f], low, high)

    def evaluate(self, f: int, point: int) -> bool:
        node = f
        while node > 1:
            var = self._var[node]
            node = self._high[node] if point >> var & 1 else self._low[node]
        return node == self.one

    def is_tautology(self, f: int) -> bool:
        return f == self.one

    def is_satisfiable(self, f: int) -> bool:
        return f != self.zero

    def any_sat(self, f: int) -> Optional[int]:
        """One satisfying point (free variables set to 0), or ``None``."""
        if f == self.zero:
            return None
        point = 0
        node = f
        while node > 1:
            if self._low[node] != self.zero:
                node = self._low[node]
            else:
                point |= 1 << self._var[node]
                node = self._high[node]
        return point

    def sat_count(self, f: int) -> int:
        """Number of satisfying assignments over all ``nvars`` variables."""
        memo2: dict[tuple[int, int], int] = {}

        def walk(node: int, var: int) -> int:
            if var == self.nvars:
                return 1 if node == self.one else 0
            key = (node, var)
            cached = memo2.get(key)
            if cached is not None:
                return cached
            if self._var[node] == var:
                result = walk(self._low[node], var + 1) + walk(
                    self._high[node], var + 1
                )
            else:
                result = 2 * walk(node, var + 1)
            memo2[key] = result
            return result

        return walk(f, 0)

    def support(self, f: int) -> set[int]:
        result: set[int] = set()
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            result.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return result

    def minterms(self, f: int) -> Iterator[int]:
        """Yield all satisfying points (use for small nvars only)."""
        for point in range(1 << self.nvars):
            if self.evaluate(f, point):
                yield point

    def size(self, f: int) -> int:
        """Number of internal nodes reachable from ``f``."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def from_cover(self, cover: "object") -> int:
        """Build a BDD from a :class:`repro.boolean.cover.Cover`."""
        from .cube import bit_indices  # local import avoids a cycle at module load

        result = self.zero
        for cube in cover:  # type: ignore[attr-defined]
            term = self.one
            for var in bit_indices(cube.used):
                term = self.apply_and(
                    term, self.literal(var, bool(cube.phase & (1 << var)))
                )
            result = self.apply_or(result, term)
        return result

    def from_expr(self, expr: "object", order: Sequence[str]) -> int:
        """Build a BDD from a :class:`repro.boolean.expr.Expr`."""
        from .expr import And, Const, Lit, Not, Or, Var

        index = {name: i for i, name in enumerate(order)}

        def walk(node) -> int:  # type: ignore[no-untyped-def]
            if isinstance(node, Var):
                return self.var(index[node.name])
            if isinstance(node, Lit):
                return self.literal(index[node.name], node.positive)
            if isinstance(node, Const):
                return self.one if node.value else self.zero
            if isinstance(node, Not):
                return self.negate(walk(node.child))
            if isinstance(node, And):
                return self.conjoin([walk(t) for t in node.terms])
            if isinstance(node, Or):
                return self.disjoin([walk(t) for t in node.terms])
            raise TypeError(f"unexpected expression node {node!r}")

        return walk(expr)
