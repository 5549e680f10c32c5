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
lattice query on ``k`` changing path literals.  It is decided on the
whole ``2^k``-state table at once: each product's on-set is an AND of
event projection masks, and the test is one comparison (static) or
``k`` shift tests (dynamic) — exact, and cheap at cell/cluster sizes.
"""

from __future__ import annotations

from ..boolean.paths import LabeledSop
from .dynamic import find_mic_dyn_haz_2level
from .transition import MAX_EVENTS, lattice_masks, upward_closed
from .types import MicDynamicHazard


def _event_table(
    lsop: LabeledSop, start: int, end: int
) -> tuple[int, tuple, dict[int, int]]:
    """The output over the transition's event lattice, its
    :func:`~repro.hazards.transition.lattice_masks`, and the
    ``path id -> event`` numbering.

    Each changing labelled literal (physical path) is an event, numbered
    in order of first appearance; bit ``s`` of the table is the output
    once exactly the events in ``s`` have switched.  A literal of a
    changing variable is true either only before or only after its path
    switches, so a product's on-set is the AND of one projection mask
    per literal.  Products with a false fixed literal are dropped.
    """
    changing = start ^ end
    events: dict[int, int] = {}
    number = events.setdefault
    live: list[list[tuple[int, bool]]] = []
    for literals in lsop.path_literals():
        need = []
        for bit, path, phase in literals:
            if changing & bit:
                # (event, switched): a literal false at ``start`` needs
                # its path to have switched, a true one needs it not to.
                switched = (start & bit) != phase
                need.append((number(path, len(events)), switched))
            elif (start & bit) != phase:
                break
        else:
            live.append(need)
    k = len(events)
    if k > MAX_EVENTS:
        raise ValueError(f"{k} changing path literals exceed the lattice limit")
    up, down, full = lattice_masks(k)
    out = 0
    for need in live:
        on = full
        for event, switched in need:
            on &= up[event] if switched else down[event]
        out |= on
    return out, (up, down, full), events


def transition_has_hazard(lsop: LabeledSop, start: int, end: int) -> bool:
    """Exact logic-glitch decision for one transition of a multilevel net.

    For a static transition (f equal at the endpoints) the answer is
    True iff some reachable event-state evaluates to the opposite value;
    for a dynamic transition, iff the output can be non-monotone (rise
    then fall for 0→1, fall then rise for 1→0) before settling: the
    states showing the final value are not upward closed.

    Note: on transitions that carry a *function* hazard this necessarily
    returns True for every implementation; callers interested only in
    logic hazards must pre-filter with
    :func:`repro.hazards.transition.is_fhf`.
    """
    out, (_, down, full), _ = _event_table(lsop, start, end)
    f_start = out & 1
    if f_start == out >> (full.bit_length() - 1):
        return out != (full if f_start else 0)
    return not upward_closed(full ^ out if f_start else out, down)


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
