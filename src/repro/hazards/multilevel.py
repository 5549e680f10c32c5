"""Multilevel dynamic hazard analysis (paper section 4.2.2).

``findMicDynHazMultiLevel``: flatten the network with static-hazard-
preserving transformations, run the two-level procedure as a *filter*
producing candidate transitions, then examine the original multilevel
structure on exactly those transitions and discard false hazards.

For step 3 the paper suggests path labelling or ternary simulation on
the specific transitions.  We use an exact decision on the
path-labelled SOP: during a burst each labelled literal (physical path)
switches once at an arbitrary time, so the reachable circuit states are
precisely the subsets of switch events (the event lattice).  The
lattice is never built: since a path carries one phase, each event
either turns a literal on (a *rising* event: the literal is false at the
start) or off (a *falling* event), and the three questions the lattice
asks have closed forms in each live product's rising and falling events
(section 4's cube conditions on the labelled SOP):

* static-1 — a glitch iff no live product is free of changing literals
  (§4.1.1's containment test);
* static-0 — a glitch iff any product is live (§4.1.2's vacuous terms);
* dynamic — an intersection test over the products (§4.2).

The proofs are in ``docs/conformance.md``; the lattice walked state by
state is the reference of ``tests/hazards/test_oracle_reference.py``.
"""

from __future__ import annotations

from ..boolean.paths import LabeledSop
from .dynamic import find_mic_dyn_haz_2level
from .transition import MAX_EVENTS
from .types import MicDynamicHazard


def transition_has_hazard(lsop: LabeledSop, start: int, end: int) -> bool:
    """Exact logic-glitch decision for one transition of a multilevel net.

    For a static transition (f equal at the endpoints) the answer is
    True iff some reachable event-state evaluates to the opposite value;
    for a dynamic transition, iff the output can be non-monotone (rise
    then fall for 0→1, fall then rise for 1→0) before settling.

    Each product with no false fixed literal is *live*; its changing
    path ids split into ``R`` (false at ``start``: the product needs
    them to switch) and ``F`` (true at ``start``: it needs them not to).
    A live product is on at state ``S`` iff ``R ⊆ S`` and ``F ∩ S = ∅``,
    so f(start) is "some live ``R`` is empty" and f(end) "some live
    ``F`` is empty".  Then:

    * static-1: hazard iff every live product has a changing literal;
    * static-0: hazard iff some product is live;
    * dynamic, oriented 0→1 (a 1→0 transition swaps every ``R`` and
      ``F``; verdicts are direction-symmetric): hazard iff some live
      ``P`` with ``F_P ≠ ∅`` has ``⋂{F_Q : Q live, R_Q ⊆ R_P,
      F_Q ⊆ F_P} ≠ ∅``.  The products in that intersection are exactly
      those on at ``R_P ∪ (every falling event ∖ F_P)``, where ``P`` holds
      the output at 1; switching one common event turns them all off.

    Like the lattice it replaces, it refuses (``ValueError``) a
    transition with more than :data:`MAX_EVENTS` changing path literals,
    counting every one the scan meets, including those of a product a
    later false fixed literal kills.

    Note: on transitions that carry a *function* hazard this necessarily
    returns True for every implementation; callers interested only in
    logic hazards must pre-filter with
    :func:`repro.hazards.transition.is_fhf`.
    """
    changing = start ^ end
    seen = 0
    live: list[tuple[int, int]] = []
    f_start = f_end = False
    for literals in lsop.path_literals():
        rising = falling = 0
        for bit, path, phase in literals:
            if changing & bit:
                if (start & bit) != phase:
                    rising |= 1 << path
                else:
                    falling |= 1 << path
            elif (start & bit) != phase:
                seen |= rising | falling
                break
        else:
            seen |= rising | falling
            live.append((rising, falling))
            f_start = f_start or not rising
            f_end = f_end or not falling
    k = seen.bit_count()
    if k > MAX_EVENTS:
        raise ValueError(f"{k} changing path literals exceed the lattice limit")
    if f_start == f_end:
        if f_start:
            return all(rising or falling for rising, falling in live)
        return bool(live)
    if f_start:
        live = [(falling, rising) for rising, falling in live]
    for r_p, f_p in live:
        if not f_p:
            continue
        common = f_p
        for r_q, f_q in live:
            if not (r_q & ~r_p or f_q & ~f_p):
                common &= f_q
        if common:
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
