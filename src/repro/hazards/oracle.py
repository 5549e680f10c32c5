"""Exact, whole-table hazard oracle — ground truth for the efficient
algorithms.

The oracle classifies *every* input transition of a (small) network
straight from the definitions in section 2.3 / 4.2 of the paper, using
the exact event-lattice delay semantics of
:func:`repro.hazards.multilevel.transition_has_hazard` — each physical
path switches once at an arbitrary time, and a hazard exists iff some
event order makes the output non-monotone (dynamic) or lets it leave its
resting value (static).  Each verdict is mask arithmetic on two whole
tables: the function over the transition space
(:func:`repro.hazards.transition.space_table`) for the function-hazard
test, and the output over the event lattice for the logic-hazard test.

Exponential in the number of inputs.  It backs the production checker
(:func:`repro.conformance.certify_mapping`, over each output's support),
library-cell audits, the tests and the figure-gallery benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from ..boolean.paths import LabeledSop
from .multilevel import transition_has_hazard
from .transition import space_table, table_fhf


class TransitionKind(Enum):
    STATIC_0 = "static-0"
    STATIC_1 = "static-1"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class TransitionVerdict:
    """Exact classification of one (start, end) input burst."""

    start: int
    end: int
    kind: TransitionKind
    function_hazard: bool
    logic_hazard: bool

    @property
    def hazard_free(self) -> bool:
        return not (self.function_hazard or self.logic_hazard)


def classify_transition(lsop: LabeledSop, start: int, end: int) -> TransitionVerdict:
    """Classify one transition of a labelled implementation."""
    table, d = space_table(lsop.plain_cover(), start, end)
    f_start = table & 1
    if f_start == table >> ((1 << d) - 1):
        kind = TransitionKind.STATIC_1 if f_start else TransitionKind.STATIC_0
    else:
        kind = TransitionKind.DYNAMIC
    if not table_fhf(table, d):
        # A function hazard precludes a logic hazard for the same
        # transition (section 2.3).
        return TransitionVerdict(start, end, kind, True, False)
    logic = transition_has_hazard(lsop, start, end)
    return TransitionVerdict(start, end, kind, False, logic)


def all_transitions(nvars: int) -> Iterator[tuple[int, int]]:
    """Every ordered pair of distinct input points."""
    for start in range(1 << nvars):
        for end in range(1 << nvars):
            if start != end:
                yield start, end


def sic_transitions(nvars: int) -> Iterator[tuple[int, int]]:
    """Every single-input-change pair (each unordered pair once per
    direction)."""
    for start in range(1 << nvars):
        for var in range(nvars):
            yield start, start ^ (1 << var)


def enumerate_hazards(
    lsop: LabeledSop,
) -> dict[TransitionKind, list[TransitionVerdict]]:
    """All logic-hazardous transitions, grouped by kind."""
    result: dict[TransitionKind, list[TransitionVerdict]] = {
        kind: [] for kind in TransitionKind
    }
    for start, end in all_transitions(lsop.nvars):
        verdict = classify_transition(lsop, start, end)
        if verdict.logic_hazard:
            result[verdict.kind].append(verdict)
    return result


def is_logic_hazard_free(lsop: LabeledSop) -> bool:
    """Exhaustive hazard-freedom check (all transition classes)."""
    for start, end in all_transitions(lsop.nvars):
        if classify_transition(lsop, start, end).logic_hazard:
            return False
    return True


def hazard_subset(inner: LabeledSop, outer: LabeledSop) -> bool:
    """Exhaustive check: are ``inner``'s logic hazards ⊆ ``outer``'s?

    The gold-standard version of the paper's matching filter
    (section 3.2.2) — both implementations must realize the same
    function over the same variable ordering.
    """
    for start, end in all_transitions(inner.nvars):
        verdict = classify_transition(inner, start, end)
        if verdict.logic_hazard:
            other = classify_transition(outer, start, end)
            if not other.logic_hazard:
                return False
    return True
