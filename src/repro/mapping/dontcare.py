"""Hazard don't-care information during mapping (paper section 6).

The paper's conclusions name this as future work: "the use of *hazard
don't care* information during technology mapping as a means to improve
the quality of the mapped circuit."  The generalized fundamental-mode
assumption only requires hazard-freedom for the machine's *specified*
input bursts; a hazardous cell whose extra hazards can never be excited
by any specified burst is perfectly safe to use — and is often smaller.

Implementation: each specified primary-input burst is simulated to its
two stable endpoints; for every cluster the values its leaf signals
take at those endpoints span a *relevant transition space* per burst.
A cell hazard whose transition lies inside no relevant space is
unreachable in fundamental-mode operation and may be waived.

The endpoint projection is conservative in one direction only — it can
declare a hazard relevant that a finer analysis might waive — except
for one approximation: mid-burst the leaf signals may briefly wander
outside the projected space while the network settles.  Mapped results
should therefore be (and in this package are) re-verified by replaying
every specified burst on the mapped network, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..boolean.cube import Cube
from ..network.netlist import Netlist


@dataclass(frozen=True)
class InputBurst:
    """One specified primary-input transition: two full assignments."""

    start: Mapping[str, bool]
    end: Mapping[str, bool]


class HazardDontCares:
    """Relevant-transition oracle for a decomposed network.

    Built once per mapping run: simulates every specified burst's stable
    endpoints through the decomposed network, recording each node's
    value pair.  ``relevant`` then answers whether a cluster-level
    transition can be excited by any specified burst.
    """

    def __init__(self, netlist: Netlist, bursts: Sequence[InputBurst]) -> None:
        self.netlist = netlist
        self._endpoint_values: list[tuple[dict[str, bool], dict[str, bool]]] = []
        for burst in bursts:
            values_start = netlist.evaluate(burst.start)
            values_end = netlist.evaluate(burst.end)
            self._endpoint_values.append((values_start, values_end))

    def leaf_spaces(self, leaves: Sequence[str]) -> list[Cube]:
        """Per burst: the cube of leaf-variable values it can span."""
        spaces = []
        nvars = len(leaves)
        for values_start, values_end in self._endpoint_values:
            used = 0
            phase = 0
            for i, leaf in enumerate(leaves):
                v_start = values_start[leaf]
                v_end = values_end[leaf]
                if v_start == v_end:
                    used |= 1 << i
                    if v_start:
                        phase |= 1 << i
            spaces.append(Cube(used, phase, nvars))
        return spaces

    def relevant(
        self, leaves: Sequence[str], start_point: int, end_point: int
    ) -> bool:
        """Can any specified burst excite this cluster transition?

        True iff the transition space T[start, end] over the cluster
        leaves fits inside some burst's leaf space.
        """
        nvars = len(leaves)
        space = Cube.minterm(start_point, nvars).supercube(
            Cube.minterm(end_point, nvars)
        )
        return any(ls.contains(space) for ls in self.leaf_spaces(leaves))


def synthesis_bursts(synthesis) -> list[InputBurst]:
    """The deduplicated specified input bursts of a synthesis result.

    Each specified transition of each equation contributes one
    primary-input burst over (inputs + state lines).
    """
    seen: set[tuple[int, int]] = set()
    bursts: list[InputBurst] = []
    variables = synthesis.variables
    for transitions in synthesis.transitions.values():
        for spec in transitions:
            key = (spec.start, spec.end)
            if key in seen:
                continue
            seen.add(key)
            start = {
                name: bool(spec.start >> i & 1)
                for i, name in enumerate(variables)
            }
            end = {
                name: bool(spec.end >> i & 1) for i, name in enumerate(variables)
            }
            bursts.append(InputBurst(start, end))
    return bursts


def waive_irrelevant_hazards(
    dont_cares: Optional[HazardDontCares],
    leaves: Sequence[str],
    cell_verdicts,
    mapping: Sequence[int],
    cell_nvars: int,
):
    """Filter a cell's hazardous transitions down to the relevant ones.

    ``cell_verdicts`` is the cell's exhaustive hazardous-transition
    list; the returned subset maps each through the pin binding and
    keeps only those some specified burst can excite.  With no
    don't-care information everything is relevant.
    """
    if dont_cares is None:
        return [(v.start, v.end) for v in cell_verdicts], 0
    kept = []
    waived = 0
    for verdict in cell_verdicts:
        start = _map_point(verdict.start, mapping, cell_nvars)
        end = _map_point(verdict.end, mapping, cell_nvars)
        if dont_cares.relevant(leaves, start, end):
            kept.append((start, end))
        else:
            waived += 1
    return kept, waived


def _map_point(point: int, mapping: Sequence[int], old_nvars: int) -> int:
    result = 0
    for i in range(old_nvars):
        if point >> i & 1:
            result |= 1 << mapping[i]
    return result
