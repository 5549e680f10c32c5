"""Library cells: Boolean factored form + hazard annotation.

Section 3.2.1: the functionality *and structure* of each library
element is expressed as a Boolean factored form whose shape mirrors the
cell's pulldown network.  The BFF is analyzed for logic hazards when
the library is read in, and the result is attached to the cell for use
during matching.  Area defaults to the pulldown transistor count (one
unit per literal — the Table 3 cost model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..boolean import truthtable as tt
from ..boolean.expr import Expr, parse
from ..hazards.analyzer import HazardAnalysis, analyze_expression


@dataclass
class LibraryCell:
    """One standard cell.

    ``pins`` fixes the input ordering used by truth tables and pin
    bindings.  ``expression`` is the BFF over the pin names.
    """

    name: str
    expression: Expr
    pins: list[str]
    area: float
    delay: float
    family: str = "logic"
    analysis: Optional[HazardAnalysis] = None
    _truth_table: Optional[int] = field(default=None, repr=False)
    #: ``is_hazardous`` of the analysis ``_hazardous_of``: the answer is
    #: fixed once an analysis is attached, and covering reads it on every
    #: match.
    _hazardous_of: Optional[HazardAnalysis] = field(
        default=None, repr=False, compare=False
    )
    _hazardous: bool = field(default=False, repr=False, compare=False)

    @classmethod
    def from_text(
        cls,
        name: str,
        text: str,
        area: Optional[float] = None,
        delay: float = 1.0,
        pins: Optional[Sequence[str]] = None,
        family: str = "logic",
    ) -> "LibraryCell":
        expression = parse(text)
        pin_list = list(pins) if pins is not None else sorted(expression.support())
        missing = expression.support() - set(pin_list)
        if missing:
            raise ValueError(f"cell {name!r}: pins {sorted(missing)} undeclared")
        if area is None:
            area = float(expression.num_literals())
        return cls(name, expression, pin_list, float(area), float(delay), family)

    @property
    def num_pins(self) -> int:
        return len(self.pins)

    def truth_table(self) -> int:
        """Dense truth table over the pin ordering (cached)."""
        if self._truth_table is None:
            order = self.pins

            def func(point: int) -> bool:
                env = {
                    pin: bool(point >> i & 1) for i, pin in enumerate(order)
                }
                return self.expression.evaluate(env)

            self._truth_table = tt.from_callable(func, self.num_pins)
        return self._truth_table

    def annotate(self, exhaustive: bool = True) -> HazardAnalysis:
        """Run the hazard characterization of section 4 on the BFF.

        With ``exhaustive`` (default) the complete hazardous-transition
        list is also enumerated and stored — this is the asynchronous
        library-initialization overhead measured in Table 2.
        """
        if self.analysis is None:
            self.analysis = analyze_expression(
                self.expression, self.pins, exhaustive=exhaustive
            )
        return self.analysis

    @property
    def is_hazardous(self) -> bool:
        analysis = self.analysis
        if analysis is None:
            raise RuntimeError(
                f"cell {self.name!r} not annotated; call annotate() or "
                "Library.annotate_hazards() first"
            )
        if analysis is not self._hazardous_of:
            self._hazardous_of = analysis
            self._hazardous = analysis.has_hazards
        return self._hazardous

    def __repr__(self) -> str:
        return f"LibraryCell({self.name!r}, {self.expression.to_string()!r})"
