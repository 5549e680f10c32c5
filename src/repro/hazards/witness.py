"""Hazard witnesses: self-verifying evidence for every reported hazard.

The section-4 analyzers return *records* (cubes, vacuous terms,
transition pairs); this module turns each record into a
:class:`HazardWitness` — one concrete input burst that provably glitches
the implementation — and replays it on the event-driven simulator
(:mod:`repro.network.eventsim`) to confirm the glitch actually happens.
That makes every hazard the explain layer reports evidence in the
Verbeek/Schmaltz style: the claim ships with an executable check, so a
bug in an analyzer shows up as a witness that fails to glitch, not as a
silently wrong counter.

Replays are deterministic, not sampled: the subset lattice that
:func:`repro.hazards.multilevel.transition_has_hazard` decides on whole
tables is searched here state by state, with back-pointers, to extract
a *glitching event order* (which path switches when), and the witness
netlist gives every path its own buffer gate so per-gate delays can
realize exactly that order.  One simulation, guaranteed glitch.  The
per-state search is kept on purpose: it is an implementation of the
lattice independent of the oracle's, so a replay that does not glitch
exposes a wrong oracle verdict.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..boolean.expr import And, Not, Or, Var
from ..boolean.paths import LabeledSop
from ..network.eventsim import EventSimulator, Waveform, burst_response
from ..network.netlist import Netlist
from .multilevel import MAX_EVENTS, transition_has_hazard
from .oracle import TransitionKind, TransitionVerdict
from . import dynamic as _dynamic
from . import sic as _sic
from . import static0 as _static0
from . import static1 as _static1
from .types import (
    MicDynamicHazard,
    SicDynamicHazard,
    Static0Hazard,
    Static1Hazard,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .analyzer import HazardAnalysis

#: Witness kind strings — the explain-log reason codes.  They name the
#: paper sections that define each class (see docs/paper_map.md).
KIND_STATIC1 = "static-1"
KIND_STATIC0 = "static-0"
KIND_MIC = "dynamic-mic"
KIND_SIC = "dynamic-sic"
ALL_KINDS = (KIND_STATIC1, KIND_STATIC0, KIND_MIC, KIND_SIC)
STATIC_KINDS = frozenset({KIND_STATIC1, KIND_STATIC0})


@dataclass(frozen=True)
class HazardWitness:
    """One concrete input burst that glitches an implementation.

    ``start``/``end`` are input minterms over ``names`` (bit ``i`` is
    variable ``names[i]``); ``kind`` is the hazard class the burst
    demonstrates and ``detail`` the section-4 record (cube, cube pair,
    or vacuous term) that induced it.
    """

    kind: str
    start: int
    end: int
    nvars: int
    names: tuple[str, ...]
    detail: str = ""

    @property
    def expected_changes(self) -> int:
        """Glitch-free output transition count: 0 static, 1 dynamic."""
        return 0 if self.kind in STATIC_KINDS else 1

    def vector(self, point: int) -> dict[str, bool]:
        return {
            name: bool(point >> i & 1) for i, name in enumerate(self.names)
        }

    def start_vector(self) -> dict[str, bool]:
        return self.vector(self.start)

    def end_vector(self) -> dict[str, bool]:
        return self.vector(self.end)

    def transition_string(self) -> str:
        """Human rendering: changing inputs as arrows, the rest pinned."""
        parts = []
        for i, name in enumerate(self.names):
            before = self.start >> i & 1
            after = self.end >> i & 1
            if before != after:
                parts.append(f"{name}{'↑' if after else '↓'}")
            else:
                parts.append(f"{name}={before}")
        return " ".join(parts)

    def describe(self) -> str:
        text = f"{self.kind} witness: {self.transition_string()}"
        if self.detail:
            text += f" (from {self.detail})"
        return text

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "nvars": self.nvars,
            "names": list(self.names),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HazardWitness":
        return cls(
            kind=payload["kind"],
            start=int(payload["start"]),
            end=int(payload["end"]),
            nvars=int(payload["nvars"]),
            names=tuple(payload["names"]),
            detail=payload.get("detail", ""),
        )


@dataclass
class WitnessReplay:
    """Outcome of replaying one witness on the event simulator."""

    witness: HazardWitness
    glitched: bool
    changes: int
    expected: int
    waveform: Waveform
    schedule: list[tuple[str, int]]
    netlist: Netlist

    def describe(self) -> str:
        verdict = "glitches" if self.glitched else "NO GLITCH"
        return (
            f"{self.witness.describe()} — replay {verdict} "
            f"({self.changes} output changes, expected {self.expected})"
        )


def witness_netlist(
    lsop: LabeledSop, output: str = "f"
) -> tuple[Netlist, dict[tuple[str, int], str]]:
    """Path-explicit gate network of a labelled SOP.

    Every labelled literal becomes its own buffer/inverter gate, so each
    physical path carries an independently assignable delay — exactly
    the arbitrary-delay model the hazard algebra assumes.  Products are
    AND gates, the output an OR.  Returns the netlist and the
    ``(variable, path) -> wire node`` map used to program delays.
    """
    net = Netlist(f"{output}.witness")
    for name in lsop.names:
        net.add_input(name)
    wires: dict[tuple[str, int], str] = {}
    product_nodes: list[str] = []
    for j, product in enumerate(lsop.products):
        if not product.literals:
            # A constant-true product makes the function 1 — no witness
            # can exist; keep the structure well-formed regardless.
            const = f"_one{j}"
            net.add_constant(const, True)
            product_nodes.append(const)
            continue
        fanins = []
        for lit in product.literals:
            key = (lit.name, lit.path)
            wire = wires.get(key)
            if wire is None:
                wire = f"_w_{lit.name}_{lit.path}"
                expr = Var(lit.name) if lit.positive else Not(Var(lit.name))
                net.add_gate(wire, expr, [lit.name])
                wires[key] = wire
            fanins.append(wire)
        pname = f"_p{j}"
        func = Var(fanins[0]) if len(fanins) == 1 else And([Var(f) for f in fanins])
        net.add_gate(pname, func, fanins)
        product_nodes.append(pname)
    if not product_nodes:
        net.add_constant("_zero", False)
        net.add_output(output, "_zero")
        return net, wires
    if len(product_nodes) == 1:
        net.add_output(output, product_nodes[0])
        return net, wires
    net.add_gate("_or", Or([Var(p) for p in product_nodes]), product_nodes)
    net.add_output(output, "_or")
    return net, wires


def _event_masks(
    lsop: LabeledSop, start: int, end: int
) -> tuple[list[tuple[int, int]], dict[tuple[str, int], int]]:
    """Product on/off masks over the changing path events.

    Numbers the events as :func:`repro.hazards.multilevel
    .transition_has_hazard` does, with the same limit, and keeps the
    ``(variable, path) -> event bit`` map so a glitching state can be
    decompiled back into a wire switching order.
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
                if bool(start & bit) != lit.positive:
                    alive = False
                    break
                continue
            key = (lit.name, lit.path)
            event = events.setdefault(key, len(events))
            if bool(end & bit) == lit.positive:
                need_switched |= 1 << event
            else:
                need_unswitched |= 1 << event
        if alive:
            masks.append((need_switched, need_unswitched))
    if len(events) > MAX_EVENTS:
        raise ValueError(
            f"{len(events)} changing path literals exceed the lattice limit"
        )
    return masks, events


def glitch_schedule(
    lsop: LabeledSop, start: int, end: int
) -> Optional[list[tuple[str, int]]]:
    """A path switching order under which the output provably glitches.

    Walks the subset lattice of ``transition_has_hazard`` state by
    state, in numeric order, evaluating each state's output when the
    walk reaches it and stopping at the first glitching one: for a
    static transition, a reachable event state with the wrong output
    value; for a dynamic one, a pair ``s1 ⊆ s2`` whose outputs are
    non-monotone, found with back-pointers kept for the states walked
    so far (nothing is sized ``2^k`` up front).  The returned list
    orders the changing ``(variable, path)`` wires so the simulation
    passes through those states; ``None`` means no glitch exists (the
    transition is not logic-hazardous).
    """
    masks, events = _event_masks(lsop, start, end)
    k = len(events)
    keys: list[tuple[str, int]] = [("", 0)] * k
    for key, event in events.items():
        keys[event] = key
    plain = lsop.plain_cover()
    f_start = plain.evaluate(start)
    f_end = plain.evaluate(end)
    static = f_start == f_end
    # A glitch leaves ``mark``: the resting value of a static transition,
    # or the end value of a dynamic one once the output has shown it.
    mark = int(f_end)
    # origin[s]: the subset of s that first showed ``mark`` (-1: none).
    origin = array("l")

    stages: Optional[list[int]] = None
    for s in range(1 << k):
        value = 0
        for need_sw, need_un in masks:
            if (s & need_sw) == need_sw and not (s & need_un):
                value = 1
                break
        if static:
            if value != mark:
                stages = [s]
                break
            continue
        if value == mark:
            origin.append(s)
            continue
        first = -1
        for e in range(k):
            if s >> e & 1 and origin[s ^ (1 << e)] >= 0:
                first = origin[s ^ (1 << e)]
                break
        if first >= 0:
            stages = [first, s]
            break
        origin.append(-1)
    if stages is None:
        return None

    schedule: list[tuple[str, int]] = []
    done = 0
    for stage in stages:
        add = stage & ~done
        for e in range(k):
            if add >> e & 1:
                schedule.append(keys[e])
        done |= stage
    for e in range(k):
        if not done >> e & 1:
            schedule.append(keys[e])
    return schedule


#: Event spacing vs gate delay: logic gates settle in ``2 * GATE_DELAY``
#: (AND then OR), far inside the ``SPACING`` between path switches, so
#: the output visits every scheduled lattice state.
SPACING = 1.0
GATE_DELAY = 0.01


def replay_witness(
    lsop: LabeledSop, witness: HazardWitness, output: str = "f"
) -> WitnessReplay:
    """Deterministically replay one witness on the event simulator.

    Builds the path-explicit netlist, programs per-path buffer delays to
    realize a glitching event order from :func:`glitch_schedule`, fires
    the burst with all changing inputs switching at t=0, and reports
    whether the output waveform shows more transitions than the ideal
    monotone response.
    """
    net, wires = witness_netlist(lsop, output)
    schedule = glitch_schedule(lsop, witness.start, witness.end) or []
    changing = witness.start ^ witness.end
    ordered = list(schedule)
    scheduled = set(ordered)
    # Wires of dropped products still switch physically; let them trail.
    for key in sorted(wires):
        name, __ = key
        var = lsop.index[name]
        if changing >> var & 1 and key not in scheduled:
            ordered.append(key)
    delays = {node.name: GATE_DELAY for node in net.gates()}
    for i, key in enumerate(ordered):
        delays[wires[key]] = SPACING * (i + 1)
    simulator = EventSimulator(net, delays)
    arrivals = {
        name: 0.0
        for i, name in enumerate(witness.names)
        if changing >> i & 1
    }
    waveforms = burst_response(
        simulator,
        witness.start_vector(),
        witness.end_vector(),
        arrival_times=arrivals,
    )
    wave = waveforms[output]
    expected = witness.expected_changes
    return WitnessReplay(
        witness=witness,
        glitched=wave.glitched(expected),
        changes=wave.change_count,
        expected=expected,
        waveform=wave,
        schedule=ordered,
        netlist=net,
    )


def verify_witness(lsop: LabeledSop, witness: HazardWitness) -> bool:
    """Does the witness burst really glitch this implementation?"""
    return replay_witness(lsop, witness).glitched


# ----------------------------------------------------------------------
# Materializing witnesses from section-4 records
# ----------------------------------------------------------------------

def _record_candidates(record) -> tuple[str, Iterable[tuple[int, int]]]:
    if isinstance(record, Static1Hazard):
        return KIND_STATIC1, _static1.witness_transitions(record)
    if isinstance(record, Static0Hazard):
        return KIND_STATIC0, _static0.witness_transitions(record)
    if isinstance(record, MicDynamicHazard):
        return KIND_MIC, _dynamic.witness_transitions(record)
    if isinstance(record, SicDynamicHazard):
        return KIND_SIC, _sic.witness_transitions(record)
    raise TypeError(f"not a hazard record: {record!r}")


def witness_for_record(
    record, analysis: "HazardAnalysis"
) -> Optional[HazardWitness]:
    """Materialize one confirmed witness burst for a hazard record.

    Candidate transitions come from the record's own analyzer module;
    each is confirmed on the event lattice before being returned, so a
    returned witness is guaranteed to replay as a glitch.  ``None``
    means no candidate confirmed (only possible for a record with no
    spanning transition, e.g. a point-sized cube).
    """
    lsop = analysis.lsop
    kind, candidates = _record_candidates(record)
    for start, end in candidates:
        if start == end:
            continue
        if transition_has_hazard(lsop, start, end):
            return HazardWitness(
                kind=kind,
                start=start,
                end=end,
                nvars=analysis.nvars,
                names=tuple(analysis.names),
                detail=record.describe(analysis.names),
            )
    return None


def analysis_witnesses(
    analysis: "HazardAnalysis", per_class: Optional[int] = None
) -> list[tuple[object, HazardWitness]]:
    """(record, witness) pairs for every hazard record of an analysis.

    ``per_class`` caps the number of witnessed records per hazard class
    (the library audit shows one exemplar per class; tests take all).
    Records whose candidates do not confirm are skipped.
    """
    pairs: list[tuple[object, HazardWitness]] = []
    for records in (
        analysis.static1,
        analysis.static0,
        analysis.mic_dynamic,
        analysis.sic_dynamic,
    ):
        emitted = 0
        for record in records:
            if per_class is not None and emitted >= per_class:
                break
            witness = witness_for_record(record, analysis)
            if witness is not None:
                pairs.append((record, witness))
                emitted += 1
    return pairs


def witness_for_verdict(
    verdict: TransitionVerdict, analysis: "HazardAnalysis"
) -> HazardWitness:
    """Witness for one exhaustive-oracle verdict (already confirmed)."""
    from ..boolean.cube import popcount

    if verdict.kind is TransitionKind.STATIC_1:
        kind = KIND_STATIC1
    elif verdict.kind is TransitionKind.STATIC_0:
        kind = KIND_STATIC0
    elif popcount(verdict.start ^ verdict.end) == 1:
        kind = KIND_SIC
    else:
        kind = KIND_MIC
    return HazardWitness(
        kind=kind,
        start=verdict.start,
        end=verdict.end,
        nvars=analysis.nvars,
        names=tuple(analysis.names),
        detail=_verdict_detail(kind, verdict, analysis),
    )


def _verdict_detail(
    kind: str, verdict: TransitionVerdict, analysis: "HazardAnalysis"
) -> str:
    """Best-effort link from an exhaustive verdict back to the inducing
    section-4 record (cube, cube pair, or vacuous term)."""
    from .transition import transition_space

    names = analysis.names
    space = transition_space(verdict.start, verdict.end, analysis.nvars)
    if kind == KIND_STATIC1:
        for hazard in analysis.static1:
            if hazard.transition.contains(space):
                return hazard.describe(names)
    elif kind == KIND_STATIC0:
        for hazard in analysis.static0:
            if hazard.condition.evaluate(verdict.start) or hazard.condition.evaluate(
                verdict.end
            ):
                return hazard.describe(names)
    elif kind == KIND_SIC:
        var = (verdict.start ^ verdict.end).bit_length() - 1
        for hazard in analysis.sic_dynamic:
            if hazard.var == var and (
                hazard.condition.evaluate(verdict.start)
                or hazard.condition.evaluate(verdict.end)
            ):
                return hazard.describe(names)
    else:
        for hazard in analysis.mic_dynamic:
            if space.contains(hazard.space):
                return hazard.describe(names)
        # Dynamic hazards that are merely the shadow of a static-1
        # hazard (Example 4.2.3) are characterized by the static-1
        # records and intentionally not re-reported by the m.i.c.
        # procedure — link the shadow explicitly.
        for hazard in analysis.static1:
            if hazard.transition.intersection(space) is not None:
                return f"shadow of {hazard.describe(names)} (Ex. 4.2.3)"
    witness = HazardWitness(
        kind=kind,
        start=verdict.start,
        end=verdict.end,
        nvars=analysis.nvars,
        names=tuple(names),
    )
    return f"exhaustive verdict for {witness.transition_string()}"
