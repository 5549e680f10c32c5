"""Path-labelled flattening of multilevel expressions.

Section 4.2.3 of the paper analyzes static-0 and single-input-change
dynamic hazards of a multilevel network by *relabelling* the variables
"so that each distinct path the variable takes is identified", then
transforming the expression into SOP form through hazard-preserving
operations.  A product term that contains a variable in both phases
(through two different paths — a *vacuous* term, e.g. ``y1'·y2``) is
invisible in steady state but can pulse while the variable is in
transit; such terms are exactly the source of static-0 hazards and of
s.i.c. dynamic hazards.

This module builds the labelled SOP: every literal occurrence of the
(NNF of the) expression receives a distinct path id, and distribution
keeps vacuous products instead of simplifying them away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .cover import Cover
from .cube import Cube
from .expr import And, Const, Expr, Lit, Or


@dataclass(frozen=True)
class LabeledLiteral:
    """One literal occurrence: variable, path id, polarity."""

    name: str
    path: int
    positive: bool

    def __str__(self) -> str:
        text = f"{self.name}#{self.path}"
        return text if self.positive else text + "'"


@dataclass(frozen=True)
class LabeledProduct:
    """A product of labelled literals (one AND gate of the flattened net)."""

    literals: tuple[LabeledLiteral, ...]

    def variables(self) -> frozenset[str]:
        return frozenset(lit.name for lit in self.literals)

    def vacuous_variables(self) -> frozenset[str]:
        """Variables occurring in both phases (through different paths)."""
        pos = {lit.name for lit in self.literals if lit.positive}
        neg = {lit.name for lit in self.literals if not lit.positive}
        return frozenset(pos & neg)

    def is_vacuous(self) -> bool:
        return bool(self.vacuous_variables())

    def phase_of(self, name: str) -> Optional[bool]:
        """Unified polarity of a variable, or ``None`` if vacuous/absent."""
        phases = {lit.positive for lit in self.literals if lit.name == name}
        if len(phases) != 1:
            return None
        return next(iter(phases))

    def residual_cube(
        self, drop: Iterable[str], index: Mapping[str, int], nvars: int
    ) -> Optional[Cube]:
        """Unify labels into a plain cube, ignoring variables in ``drop``.

        Returns ``None`` when the residual itself is vacuous (a variable
        outside ``drop`` appears in both phases).
        """
        dropped = set(drop)
        used = 0
        phase = 0
        for lit in self.literals:
            if lit.name in dropped:
                continue
            bit = 1 << index[lit.name]
            if used & bit:
                if bool(phase & bit) != lit.positive:
                    return None
                continue
            used |= bit
            if lit.positive:
                phase |= bit
        return Cube(used, phase, nvars)

    def to_cube(self, index: Mapping[str, int], nvars: int) -> Optional[Cube]:
        """Plain (label-free) cube, or ``None`` when the product is vacuous."""
        return self.residual_cube((), index, nvars)

    def __str__(self) -> str:
        return "·".join(str(lit) for lit in self.literals) if self.literals else "1"


class LabeledSop:
    """The path-labelled two-level form of a multilevel expression."""

    def __init__(self, products: Sequence[LabeledProduct], names: Sequence[str]) -> None:
        self.products = list(products)
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self._plain: Optional[Cover] = None
        self._path_literals: Optional[tuple] = None
        self._path_wires: tuple[tuple[str, int], ...] = ()

    @property
    def nvars(self) -> int:
        return len(self.names)

    def vacuous_products(self) -> list[LabeledProduct]:
        return [p for p in self.products if p.is_vacuous()]

    def plain_cover(self) -> Cover:
        """Label-free SOP with vacuous products dropped, duplicates merged.

        This is the cover the static-1 and m.i.c. dynamic analyses run
        on: by Unger's Theorem 4.3 the distributive-law flattening is
        static-hazard-preserving, and vacuous products never hold the
        output in steady state.  Cached (the labelled form is immutable
        by convention).
        """
        if self._plain is not None:
            return self._plain
        cubes: list[Cube] = []
        seen: set[Cube] = set()
        for product in self.products:
            cube = product.to_cube(self.index, self.nvars)
            if cube is None or cube in seen:
                continue
            seen.add(cube)
            cubes.append(cube)
        self._plain = Cover(cubes, self.nvars)
        return self._plain

    def path_literals(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Each product as ``(variable bit, path id, phase bit)`` triples.

        The path id numbers the distinct ``(name, path)`` wires, which
        :meth:`path_wires` lists in id order; the phase bit is the
        variable bit of a positive literal, else 0.  Compiled once, like
        :meth:`plain_cover`.

        A wire carries one phase (:func:`label_expression` and
        :func:`label_cover` give every literal occurrence its own path),
        and the hazard oracle's closed forms rely on it: a wire read in
        both phases raises ``TypeError`` (not the ``ValueError`` of a
        lattice refusal).
        """
        if self._path_literals is None:
            ids: dict[tuple[str, int], int] = {}
            compiled = tuple(
                tuple(
                    (
                        1 << self.index[lit.name],
                        ids.setdefault((lit.name, lit.path), len(ids)),
                        1 << self.index[lit.name] if lit.positive else 0,
                    )
                    for lit in product.literals
                )
                for product in self.products
            )
            positive = negative = 0  # path ids read in each phase
            for literals in compiled:
                for _, path, phase in literals:
                    if phase:
                        positive |= 1 << path
                    else:
                        negative |= 1 << path
            both = positive & negative
            if both:
                name, path = list(ids)[(both & -both).bit_length() - 1]
                raise TypeError(f"wire {name}#{path} is read in both phases")
            self._path_literals = compiled
            self._path_wires = tuple(ids)
        return self._path_literals

    def path_wires(self) -> tuple[tuple[str, int], ...]:
        """The ``(name, path)`` wire of each :meth:`path_literals` id."""
        self.path_literals()
        return self._path_wires

    def __len__(self) -> int:
        return len(self.products)

    def __str__(self) -> str:
        return " + ".join(str(p) for p in self.products) if self.products else "0"


def label_cover(cover: Cover, names: Sequence[str]) -> LabeledSop:
    """Path-labelled view of a two-level AND-OR implementation.

    Each literal of each cube is a distinct physical wire into its AND
    gate, hence a distinct path label.
    """
    from .cube import bit_indices

    counters: dict[str, int] = {}
    products = []
    for cube in cover:
        literals = []
        for var in bit_indices(cube.used):
            name = names[var]
            path = counters.get(name, 0)
            counters[name] = path + 1
            positive = bool(cube.phase & (1 << var))
            literals.append(LabeledLiteral(name, path, positive))
        products.append(LabeledProduct(tuple(literals)))
    return LabeledSop(products, names)


def label_expression(expr: Expr, names: Optional[Sequence[str]] = None) -> LabeledSop:
    """Flatten an expression to its path-labelled SOP.

    Every literal occurrence in the NNF of ``expr`` receives a fresh
    path id (per variable), so reconvergent paths stay distinguishable
    after distribution.  Products are kept verbatim — including vacuous
    ones — because the flattening must be hazard-preserving.
    """
    nnf = expr.to_nnf()
    counters: dict[str, int] = {}

    def walk(node: Expr) -> list[list[LabeledLiteral]]:
        if isinstance(node, Lit):
            path = counters.get(node.name, 0)
            counters[node.name] = path + 1
            return [[LabeledLiteral(node.name, path, node.positive)]]
        if isinstance(node, Const):
            return [[]] if node.value else []
        if isinstance(node, Or):
            result: list[list[LabeledLiteral]] = []
            for term in node.terms:
                result.extend(walk(term))
            return result
        if isinstance(node, And):
            result = [[]]
            for term in node.terms:
                branch = walk(term)
                result = [p + q for p in result for q in branch]
            return result
        raise TypeError(f"unexpected node in NNF: {node!r}")

    raw_products = walk(nnf)
    products = [LabeledProduct(tuple(p)) for p in raw_products]
    if names is None:
        names = sorted(expr.support())
    return LabeledSop(products, names)
