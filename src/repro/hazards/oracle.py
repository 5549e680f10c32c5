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

Every exhaustive loop goes through :func:`classify_all`, which decides
each transition cube once: a static verdict is a property of the
transition space, and every verdict is the same in both directions, so
:func:`classify_transition` runs once per static cube and once per
unordered dynamic pair (the proof is in ``docs/conformance.md``).
:func:`classify_transition` stays the one place a decision is made.
:func:`classify_all` yields a small int per transition, its verdict
code (``fh | lh << 1 | kind << 2``); a :class:`TransitionVerdict` is
built only where a caller needs one (:func:`code_verdict`).

Exponential in the number of inputs.  It backs the production checker
(:func:`repro.conformance.certify_mapping`, over each output's support),
library-cell annotation and audits, the tests and the figure-gallery
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

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


#: Bits of a verdict code, as :func:`classify_all` yields it: the
#: function hazard, the logic hazard, and above them the kind's index in
#: :data:`CODE_KINDS`, so ``code = fh | lh << 1 | kind << 2``.  The
#: static kinds come first, so f(start) is the index of a static kind.
CODE_FH = 1
CODE_LH = 2
CODE_KINDS = (
    TransitionKind.STATIC_0,
    TransitionKind.STATIC_1,
    TransitionKind.DYNAMIC,
)
_KIND_BITS = {kind: index << 2 for index, kind in enumerate(CODE_KINDS)}


def verdict_code(verdict: TransitionVerdict) -> int:
    """The verdict code of a verdict."""
    return (
        _KIND_BITS[verdict.kind]
        | verdict.function_hazard
        | verdict.logic_hazard << 1
    )


def code_verdict(start: int, end: int, code: int) -> TransitionVerdict:
    """The verdict a code stands for on the transition ``start -> end``."""
    return TransitionVerdict(
        start, end, CODE_KINDS[code >> 2], bool(code & CODE_FH), bool(code & CODE_LH)
    )


#: What :func:`classify_all`'s tables keep per key: unset (0), refused
#: past the event-lattice limit, or ``_DECIDED | fh | lh << 1``.
_REFUSED = 1
_DECIDED = 4


def classify_all(lsop: LabeledSop) -> Iterator[Optional[int]]:
    """The verdict code of every transition, in :func:`all_transitions`
    order.

    Yields the code (:func:`verdict_code`) of what
    :func:`classify_transition` returns for each ordered pair, or
    ``None`` where it refuses the event lattice (``ValueError`` past
    :data:`~repro.hazards.multilevel.MAX_EVENTS`).  No verdict object is
    built per transition: a caller decodes the few it needs with
    :func:`code_verdict`.  It calls :func:`classify_transition` once per
    decision:

    * a static transition's function- and logic-hazard verdicts belong
      to its transition cube: fixed variables are equal at every corner,
      so the same products stay live, the same changing path literals
      become events and the same path-value assignments are reachable,
      whichever corner the burst starts from; only the kind, f(start),
      moves;
    * reversing a transition maps each event state (and each point of
      the space) to its complement, so every verdict is the same in
      both directions.

    A cube is keyed by its bottom and top corners, a dynamic pair by its
    two points.  Both keys are pairs of points, so they live in separate
    tables: a cube's corners can be the endpoints of a dynamic pair.
    The tables hold one byte per key and last for this call only.
    """
    size = 1 << lsop.nvars
    values, _ = space_table(lsop.plain_cover(), 0, size - 1)  # f at each point
    f = [values >> point & 1 for point in range(size)]
    # Keys of the pairs (low, high), low < high: high's row starts here.
    rows = [high * (high - 1) // 2 for high in range(size)]
    cubes = bytearray(size * (size - 1) // 2)
    pairs = bytearray(len(cubes))
    dynamic = _KIND_BITS[TransitionKind.DYNAMIC]
    for start in range(size):
        f_start = f[start]
        static = _KIND_BITS[CODE_KINDS[f_start]]
        for end in range(size):
            if start == end:
                continue
            if f_start == f[end]:
                table, kind = cubes, static
                key = rows[start | end] + (start & end)
            elif start < end:
                table, kind = pairs, dynamic
                key = rows[end] + start
            else:
                table, kind = pairs, dynamic
                key = rows[start] + end
            code = table[key]
            if not code:
                try:
                    verdict = classify_transition(lsop, start, end)
                except ValueError:
                    table[key] = _REFUSED
                    yield None
                    continue
                code = table[key] = (
                    _DECIDED | verdict.function_hazard | verdict.logic_hazard << 1
                )
            elif code == _REFUSED:
                yield None
                continue
            yield code & 3 | kind


def _decided(lsop: LabeledSop) -> Iterator[tuple[int, int, int]]:
    """``(start, end, code)`` of every transition, as :func:`classify_all`
    yields them, for callers that let a refusal escape: where it yields
    ``None`` the lattice-limit ``ValueError`` is raised."""
    for (start, end), code in zip(all_transitions(lsop.nvars), classify_all(lsop)):
        if code is None:
            classify_transition(lsop, start, end)  # raises the refusal
        yield start, end, code


def enumerate_hazards(
    lsop: LabeledSop,
) -> dict[TransitionKind, list[TransitionVerdict]]:
    """All logic-hazardous transitions, grouped by kind."""
    result: dict[TransitionKind, list[TransitionVerdict]] = {
        kind: [] for kind in TransitionKind
    }
    for start, end, code in _decided(lsop):
        if code & CODE_LH:
            verdict = code_verdict(start, end, code)
            result[verdict.kind].append(verdict)
    return result


def hazardous_transitions(lsop: LabeledSop) -> list[TransitionVerdict]:
    """Every logic-hazardous transition, in :func:`all_transitions` order."""
    return [
        code_verdict(start, end, code)
        for start, end, code in _decided(lsop)
        if code & CODE_LH
    ]


def is_logic_hazard_free(lsop: LabeledSop) -> bool:
    """Exhaustive hazard-freedom check (all transition classes)."""
    return not any(code & CODE_LH for _, _, code in _decided(lsop))


def hazard_subset(inner: LabeledSop, outer: LabeledSop) -> bool:
    """Exhaustive check: are ``inner``'s logic hazards ⊆ ``outer``'s?

    The gold-standard version of the paper's matching filter
    (section 3.2.2) — both implementations must realize the same
    function over the same variable ordering.
    """
    for (start, end, code), other in zip(_decided(inner), classify_all(outer)):
        if code & CODE_LH:
            if other is None:
                classify_transition(outer, start, end)  # raises the refusal
            if not other & CODE_LH:
                return False
    return True
