"""Multilevel dynamic hazard analysis (paper section 4.2.2).

``findMicDynHazMultiLevel``: flatten the network with static-hazard-
preserving transformations, run the two-level procedure as a *filter*
producing candidate transitions, then examine the original multilevel
structure on exactly those transitions and discard false hazards.

For step 3 the paper suggests path labelling or ternary simulation on
the specific transitions.  We use an exact event-lattice decision
procedure on the path-labelled SOP: during a burst each labelled literal
(physical path) switches once at an arbitrary time, so the reachable
circuit states are precisely the monotone subsets of switch events.
Because *every* monotone event order is possible under the arbitrary
gate/wire delay model, "the output can glitch" reduces to a subset-
lattice reachability query, solved by dynamic programming in
``O(2^k · k)`` for ``k`` changing path literals — exact, and cheap at
cell/cluster sizes.
"""

from __future__ import annotations

from ..boolean.cover import Cover
from ..boolean.cube import Cube
from ..boolean.paths import LabeledSop
from .dynamic import find_mic_dyn_haz_2level
from .types import MicDynamicHazard

#: Refuse lattice analysis past this many changing path literals.
MAX_EVENTS = 20


def _product_masks(
    lsop: LabeledSop, start: int, end: int
) -> tuple[list[tuple[int, int]], int]:
    """Compile products into (need_switched, need_unswitched) event masks.

    Each changing labelled literal is an event; a literal of a changing
    variable is true either only before or only after its path switches,
    so a product is on in state ``s`` iff ``s`` contains its
    need-switched events and none of its need-unswitched events.
    Products with a false fixed literal are dropped.  Returns the mask
    list and the event count.
    """
    changing = start ^ end
    events: dict[tuple[str, int], int] = {}
    masks: list[tuple[int, int]] = []
    for product in lsop.products:
        need_switched = 0
        need_unswitched = 0
        alive = True
        for lit in product.literals:
            var = lsop.index[lit.name]
            bit = 1 << var
            if not changing & bit:
                value = bool(start & bit)
                if value != lit.positive:
                    alive = False
                    break
                continue
            key = (lit.name, lit.path)
            event = events.setdefault(key, len(events))
            true_after = bool(end & bit) == lit.positive
            if true_after:
                need_switched |= 1 << event
            else:
                need_unswitched |= 1 << event
        if not alive:
            continue
        masks.append((need_switched, need_unswitched))
    if len(events) > MAX_EVENTS:
        raise ValueError(
            f"{len(events)} changing path literals exceed the lattice limit"
        )
    return masks, len(events)


def transition_has_hazard(lsop: LabeledSop, start: int, end: int) -> bool:
    """Exact logic-glitch decision for one transition of a multilevel net.

    For a static transition (f equal at the endpoints) the answer is
    True iff some reachable event-state evaluates to the opposite value;
    for a dynamic transition, iff the output can be non-monotone (rise
    then fall for 0→1, fall then rise for 1→0) before settling.

    Note: on transitions that carry a *function* hazard this necessarily
    returns True for every implementation; callers interested only in
    logic hazards must pre-filter with
    :func:`repro.hazards.transition.is_fhf`.
    """
    masks, k = _product_masks(lsop, start, end)
    plain = lsop.plain_cover()
    f_start = plain.evaluate(start)
    f_end = plain.evaluate(end)

    nstates = 1 << k
    out = bytearray(nstates)
    for s in range(nstates):
        value = 0
        for need_sw, need_un in masks:
            if (s & need_sw) == need_sw and not (s & need_un):
                value = 1
                break
        out[s] = value

    if f_start == f_end:
        target = 1 if f_start else 0
        return any(out[s] != target for s in range(nstates))

    # Dynamic transition: look for a non-monotone pair s1 ⊆ s2.
    # ``seen_opposite[s]``: some subset of s evaluates to the *initial*
    # post-change polarity (1 for a 0→1 transition, 0 for 1→0).
    rising = not f_start
    mark = 1 if rising else 0
    seen = bytearray(nstates)
    for s in range(nstates):
        if out[s] == mark:
            seen[s] = 1
        else:
            sub = s
            found = 0
            for e in range(k):
                if s >> e & 1 and seen[s ^ (1 << e)]:
                    found = 1
                    break
            seen[s] = found
        # Hazard: output has already shown ``mark`` on the way to s,
        # yet s evaluates to the opposite value (and the run still must
        # end at f_end == mark, completing the extra swing).
        if out[s] != mark and seen[s]:
            return True
    return False


def find_mic_dyn_haz_multilevel(lsop: LabeledSop) -> list[MicDynamicHazard]:
    """The paper's three-step multilevel procedure.

    1. flatten to two-level SOP (static-hazard-preserving — done by the
       caller when constructing ``lsop``);
    2. run ``findMicDynHaz2level`` on the flattened expression;
    3. keep only candidates the real multilevel structure exhibits.
    """
    plain = lsop.plain_cover()
    candidates = find_mic_dyn_haz_2level(plain)
    confirmed = []
    for hazard in candidates:
        if transition_has_hazard(lsop, hazard.start, hazard.end):
            confirmed.append(hazard)
    return confirmed
