"""Exact hazard oracle — ground truth for the efficient algorithms.

The oracle classifies *every* input transition of a (small) network
straight from the definitions in section 2.3 / 4.2 of the paper, under
the exact event-lattice delay semantics of
:func:`repro.hazards.multilevel.transition_has_hazard` — each physical
path switches once at an arbitrary time, and a hazard exists iff some
event order makes the output non-monotone (dynamic) or lets it leave its
resting value (static).  That function decides the lattice in closed
form, from each live product's rising and falling path events, without
building it.

:func:`classify_transition` decides one transition: the function-hazard
test on the function's truth table over the transition space
(:func:`repro.hazards.transition.space_table`), then the closed form.
Every exhaustive loop goes through :func:`classify_rows`, which decides
a whole start row at once with ``2^n``-bit masks over the changing sets:
the function-hazard tests are superset closures, the static logic tests
ORs of per-product subset and superset masks, and only the
function-hazard-free dynamic transitions (once per unordered pair) and
the static ones that could pass the lattice limit (once per cube) are
decided one at a time (the proofs are in ``docs/conformance.md``).  A
row's verdicts are masks; :func:`classify_all` reads them as one small
int per transition, its verdict code (``fh | lh << 1 | kind << 2``),
and a :class:`TransitionVerdict` is built only where a caller needs one
(:func:`code_verdict`).

Exponential in the number of inputs.  It backs the production checker
(:func:`repro.conformance.certify_mapping`, over each output's support),
library-cell annotation and audits, the tests and the figure-gallery
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from ..boolean.paths import LabeledSop
from .multilevel import transition_has_hazard
from .transition import MAX_EVENTS, lattice_masks, space_table, table_fhf


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


class Row(NamedTuple):
    """The verdicts of every transition from one start point.

    Each mask has bit ``end`` for the transition ``start -> end`` (never
    bit ``start``): ``dynamic`` where f(end) differs from f(start),
    ``fh`` a function hazard, ``lh`` a logic hazard, ``refused`` past
    the event-lattice limit (neither ``fh`` nor ``lh`` is set there).
    ``value`` is f(start).
    """

    start: int
    value: int
    dynamic: int
    fh: int
    lh: int
    refused: int

    def code(self, end: int) -> Optional[int]:
        """The verdict code of ``start -> end``, ``None`` if refused."""
        if self.refused >> end & 1:
            return None
        if self.dynamic >> end & 1:
            kind = _KIND_BITS[TransitionKind.DYNAMIC]
        else:
            kind = _KIND_BITS[CODE_KINDS[self.value]]
        return kind | (self.fh >> end & 1) | (self.lh >> end & 1) << 1


def _translate(table: int, start: int, up, down) -> int:
    """Bit ``c`` of the result is bit ``start ^ c`` of ``table`` (an
    involution: it maps end points to changing sets and back)."""
    i = 0
    while start:
        if start & 1:
            shift = 1 << i
            table = (table & up[i]) >> shift | (table & down[i]) << shift
        start >>= 1
        i += 1
    return table


def _above(states: int, down) -> int:
    """The superset closure of a set of points: one shift-OR per
    variable carries each point to its supersets."""
    for i, lacking in enumerate(down):
        states |= (states & lacking) << (1 << i)
    return states


def _meet(bits: int, masks, full: int) -> int:
    """The AND of ``masks[i]`` over the variables ``i`` in ``bits``."""
    out = full
    while bits:
        low = bits & -bits
        out &= masks[low.bit_length() - 1]
        bits ^= low
    return out


def _wide(literals, nvars: int, full: int) -> int:
    """The changing sets whose variables carry more than
    :data:`~repro.hazards.transition.MAX_EVENTS` distinct path ids: the
    only ones a transition can be refused on."""
    paths: dict[int, set] = {}
    for product in literals:
        for bit, path, _ in product:
            paths.setdefault(bit, set()).add(path)
    counts = [len(paths.get(1 << i, ())) for i in range(nvars)]
    if sum(counts) <= MAX_EVENTS:
        return 0
    total = [0] * (full.bit_length())
    wide = 0
    for changing in range(1, len(total)):
        low = changing & -changing
        total[changing] = total[changing ^ low] + counts[low.bit_length() - 1]
        if total[changing] > MAX_EVENTS:
            wide |= 1 << changing
    return wide


#: What :func:`classify_rows`' tables keep per key: unset (0), refused
#: past the event-lattice limit, or ``_DECIDED | lh``.
_REFUSED = 1
_DECIDED = 4


def classify_rows(lsop: LabeledSop) -> Iterator[Row]:
    """Every transition's verdict, one :class:`Row` per start point in
    :func:`all_transitions` order.

    Each row is what :func:`classify_transition` returns for the
    transitions from its start, decided with ``2^n``-bit masks over the
    changing sets ``c = start ⊕ end``:

    * **function hazards.**  With ``B`` the changing sets where f
      differs from f(start), a static transition has one iff ``c`` lies
      above a point of ``B``, a dynamic one iff it lies above a point
      above ``B`` and outside it: ``fh = above(above(B) ∖ B)``, two
      superset closures of ``n`` shift-ORs each.
    * **static logic hazards**, in closed form
      (:func:`~repro.hazards.multilevel.transition_has_hazard`): from a
      start where f is 1, a glitch iff no cube true at the start avoids
      every changing variable, the OR of one subset mask per such cube;
      where f is 0, iff some labelled product is live, the OR of one
      superset mask per product (the variables of its literals false at
      the start must all change).
    * **dynamic logic hazards** are decided per transition by the
      closed form, once per function-hazard-free unordered pair (a
      verdict is the same in both directions), and so are the
      function-hazard-free static transitions whose changing variables
      carry more than :data:`~repro.hazards.transition.MAX_EVENTS` path
      ids, the only ones that can be refused (once per transition cube:
      a static verdict and its refusal belong to the cube).

    The proofs are in ``docs/conformance.md``.  The pair and cube tables
    hold one byte per key and last for this call only; nothing here goes
    through :func:`classify_transition`.
    """
    nvars = lsop.nvars
    size = 1 << nvars
    literals = lsop.path_literals()
    plain = lsop.plain_cover()
    up, down, full = lattice_masks(nvars)
    values, _ = space_table(plain, 0, size - 1)  # f at each point
    # Static-1: per cube, the changing sets that avoid its variables.
    cubes = [
        (cube.used, cube.phase, _meet(cube.used, down, full)) for cube in plain.cubes
    ]
    # Static-0: per labelled product, its positive and negative variables.
    products = []
    for product in literals:
        positive = negative = 0
        for bit, _, phase in product:
            if phase:
                positive |= bit
            else:
                negative |= bit
        products.append((positive, negative))
    above: dict[int, int] = {}  # variables -> the changing sets holding them
    wide = _wide(literals, nvars, full)
    # Keys of the pairs (low, high), low < high: high's keys start here.
    offset = [high * (high - 1) // 2 for high in range(size)]
    pairs = bytearray(size * (size - 1) // 2)
    spaces = bytearray(len(pairs))
    for start in range(size):
        shifted = _translate(values, start, up, down)
        value = shifted & 1
        differ = shifted ^ full if value else shifted
        reach = _above(differ, down)
        fh = _above(reach ^ differ, down)
        steady = full ^ reach ^ 1  # static, function-hazard-free
        lh = 0
        if steady and value:
            held = 0
            for used, phase, avoid in cubes:
                if not (start ^ phase) & used:
                    held |= avoid
            lh = steady & ~held
        elif steady:
            pulse = 0
            for positive, negative in products:
                false = positive & ~start | negative & start
                mask = above.get(false)
                if mask is None:
                    mask = above[false] = _meet(false, up, full)
                pulse |= mask
            lh = steady & pulse
        refused = 0
        single = differ & ~fh | steady & wide
        while single:
            low = single & -single
            single ^= low
            end = start ^ (low.bit_length() - 1)
            if differ & low:
                table = pairs
                key = offset[end] + start if start < end else offset[start] + end
            else:
                table = spaces
                key = offset[start | end] + (start & end)
            code = table[key]
            if not code:
                try:
                    code = _DECIDED | transition_has_hazard(lsop, start, end)
                except ValueError:
                    code = _REFUSED
                table[key] = code
            if code == _REFUSED:
                refused |= low
                lh &= ~low
            elif code & 1:
                lh |= low
            else:
                lh &= ~low
        yield Row(
            start,
            value,
            values ^ full if value else values,
            _translate(fh, start, up, down),
            _translate(lh, start, up, down) if lh else 0,
            _translate(refused, start, up, down) if refused else 0,
        )


def classify_all(lsop: LabeledSop) -> Iterator[Optional[int]]:
    """The verdict code of every transition, in :func:`all_transitions`
    order: :func:`classify_rows` read one transition at a time.

    Yields the code (:func:`verdict_code`) of what
    :func:`classify_transition` returns for each ordered pair, or
    ``None`` where it refuses the event lattice (``ValueError`` past
    :data:`~repro.hazards.transition.MAX_EVENTS`).  No verdict object is
    built per transition: a caller decodes the few it needs with
    :func:`code_verdict`.
    """
    for row in classify_rows(lsop):
        start = row.start
        for end in range(1 << lsop.nvars):
            if end != start:
                yield row.code(end)


def _refuse(lsop: LabeledSop, start: int, end: int) -> None:
    """Raise the lattice-limit ``ValueError`` of a refused transition."""
    transition_has_hazard(lsop, start, end)
    raise AssertionError(f"{start}->{end} was refused but decides")


def _logic_hazards(lsop: LabeledSop) -> Iterator[TransitionVerdict]:
    """Every logic-hazardous transition's verdict, in
    :func:`all_transitions` order, for callers that let a refusal
    escape: the lattice-limit ``ValueError`` is raised where the first
    refused transition stands."""
    for row in classify_rows(lsop):
        start, lh, refused = row.start, row.lh, row.refused
        first = refused & -refused
        if first:
            lh &= first - 1
        while lh:
            low = lh & -lh
            lh ^= low
            end = low.bit_length() - 1
            yield code_verdict(start, end, row.code(end))
        if first:
            _refuse(lsop, start, first.bit_length() - 1)


def enumerate_hazards(
    lsop: LabeledSop,
) -> dict[TransitionKind, list[TransitionVerdict]]:
    """All logic-hazardous transitions, grouped by kind."""
    result: dict[TransitionKind, list[TransitionVerdict]] = {
        kind: [] for kind in TransitionKind
    }
    for verdict in _logic_hazards(lsop):
        result[verdict.kind].append(verdict)
    return result


def hazardous_transitions(lsop: LabeledSop) -> list[TransitionVerdict]:
    """Every logic-hazardous transition, in :func:`all_transitions` order."""
    return list(_logic_hazards(lsop))


def is_logic_hazard_free(lsop: LabeledSop) -> bool:
    """Exhaustive hazard-freedom check (all transition classes)."""
    return next(_logic_hazards(lsop), None) is None


def hazard_subset(inner: LabeledSop, outer: LabeledSop) -> bool:
    """Exhaustive check: are ``inner``'s logic hazards ⊆ ``outer``'s?

    The gold-standard version of the paper's matching filter
    (section 3.2.2) — both implementations must realize the same
    function over the same variable ordering.  Transitions are read in
    :func:`all_transitions` order, and a refusal on the way (``inner``'s
    anywhere, ``outer``'s where ``inner`` has a logic hazard) raises.
    """
    for mine, theirs in zip(classify_rows(inner), classify_rows(outer)):
        lost = mine.lh & ~theirs.lh & ~theirs.refused
        stops = mine.refused | mine.lh & theirs.refused | lost
        if stops:
            low = stops & -stops
            end = low.bit_length() - 1
            if mine.refused & low:
                _refuse(inner, mine.start, end)
            if theirs.refused & low:
                _refuse(outer, mine.start, end)
            return False
    return True
