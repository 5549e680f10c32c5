"""Event-driven gate-level timing simulation.

The hazard algebra of :mod:`repro.hazards` answers "*can* some delay
assignment glitch this output?".  This module answers the operational
counterpart: given one concrete assignment of per-gate delays, what
waveform does each node actually produce for an input burst?  It turns
abstract hazard verdicts into visible glitches — and lets tests confirm
the two views agree: a transition flagged hazardous glitches under some
sampled delay assignment, and a hazard-free network never glitches
under any.

The model is the classic pure-delay gate: a gate re-evaluates whenever
a fanin changes and schedules its new value after its delay.  Pure
delays propagate arbitrarily short pulses, matching the worst-case
assumption behind fundamental-mode hazard analysis (an inertial model
would *hide* glitches, which is exactly what one must not assume).
"""

from __future__ import annotations

import copy
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .netlist import Netlist


@dataclass(frozen=True)
class Edge:
    """One signal change."""

    time: float
    node: str
    value: bool


@dataclass
class Waveform:
    """The edge history of one node (initial value + changes)."""

    initial: bool
    edges: list[Edge] = field(default_factory=list)

    def value_at(self, time: float) -> bool:
        value = self.initial
        for edge in self.edges:
            if edge.time > time:
                break
            value = edge.value
        return value

    @property
    def final(self) -> bool:
        return self.edges[-1].value if self.edges else self.initial

    @property
    def change_count(self) -> int:
        """Number of real transitions (consecutive duplicates merged)."""
        count = 0
        value = self.initial
        for edge in self.edges:
            if edge.value != value:
                count += 1
                value = edge.value
        return count

    def glitched(self, expected_changes: int) -> bool:
        """More transitions than the ideal monotone response?"""
        return self.change_count > expected_changes


class EventSimulator:
    """Pure-delay event-driven simulator for a combinational network."""

    def __init__(
        self,
        netlist: Netlist,
        gate_delays: Optional[Mapping[str, float]] = None,
        default_delay: float = 1.0,
    ) -> None:
        netlist.validate()
        self.netlist = netlist
        #: Evaluation order of the stable start state, computed once.
        self.order = netlist.topological_order()
        self.delays: dict[str, float] = {}
        for node in netlist.gates():
            if gate_delays and node.name in gate_delays:
                self.delays[node.name] = float(gate_delays[node.name])
            elif node.cell is not None:
                self.delays[node.name] = node.cell.delay
            else:
                self.delays[node.name] = default_delay
        self.fanouts = netlist.fanouts()

    @classmethod
    def with_random_delays(
        cls,
        netlist: Netlist,
        seed: int,
        low: float = 0.5,
        high: float = 2.0,
    ) -> "EventSimulator":
        rng = random.Random(seed)
        delays = {
            node.name: rng.uniform(low, high) for node in netlist.gates()
        }
        return cls(netlist, delays)

    def retimed(self, gate_delays: Mapping[str, float]) -> "EventSimulator":
        """This simulator with some gate delays replaced.

        The copy shares the validated netlist, its fanouts and its
        evaluation order, so nothing is rebuilt or re-checked; its
        delays are a new table, so neither simulator sees the other's.
        """
        clone = copy.copy(self)
        clone.delays = dict(self.delays)
        for name, delay in gate_delays.items():
            clone.delays[name] = float(delay)
        return clone

    def run(
        self,
        start: Mapping[str, bool],
        input_edges: Sequence[tuple[float, str, bool]],
        horizon: float = 1e6,
    ) -> dict[str, Waveform]:
        """Simulate from the stable state ``start`` through input edges.

        ``input_edges`` are (time, input name, new value) triples.
        Returns the waveform of every node, settled to quiescence.
        """
        nodes = self.netlist.nodes
        values: dict[str, bool] = {}
        for name in self.order:
            node = nodes[name]
            if node.is_input():
                values[name] = bool(start[name])
            elif node.is_output():
                values[name] = values[node.fanins[0]]
            else:
                assert node.func is not None
                values[name] = node.func.evaluate(values)
        waveforms = {name: Waveform(values[name]) for name in nodes}

        counter = itertools.count()
        queue: list[tuple[float, int, str, bool]] = []
        for time, name, value in input_edges:
            if name not in self.netlist.nodes or not self.netlist.nodes[name].is_input():
                raise ValueError(f"{name!r} is not a primary input")
            heapq.heappush(queue, (float(time), next(counter), name, value))

        while queue:
            time, __, name, value = heapq.heappop(queue)
            if time > horizon:
                break
            if values[name] == value:
                continue
            values[name] = value
            waveforms[name].edges.append(Edge(time, name, value))
            for consumer in self.fanouts[name]:
                node = self.netlist.nodes[consumer]
                if node.is_output():
                    # outputs are aliases: follow instantly
                    heapq.heappush(
                        queue, (time, next(counter), consumer, value)
                    )
                    continue
                assert node.func is not None
                new_value = node.func.evaluate(values)
                delay = self.delays[consumer]
                heapq.heappush(
                    queue, (time + delay, next(counter), consumer, new_value)
                )
        return waveforms


def burst_response(
    simulator: EventSimulator,
    start: Mapping[str, bool],
    end: Mapping[str, bool],
    arrival_times: Optional[Mapping[str, float]] = None,
    seed: int = 0,
) -> dict[str, Waveform]:
    """Simulate one input burst with per-input arrival times.

    Changing inputs switch once, at their arrival time (random within
    [0, 1) when not given) — the generalized fundamental-mode burst.
    """
    rng = random.Random(seed)
    edges = []
    for name in simulator.netlist.inputs:
        if bool(start[name]) != bool(end[name]):
            time = (
                arrival_times[name]
                if arrival_times and name in arrival_times
                else rng.random()
            )
            edges.append((time, name, bool(end[name])))
    return simulator.run(start, edges)


def output_glitches(
    netlist: Netlist,
    start: Mapping[str, bool],
    end: Mapping[str, bool],
    trials: int = 20,
    seed: int = 0,
) -> dict[str, bool]:
    """Did any sampled delay/arrival assignment glitch each output?

    For every output the ideal response has 0 changes (static
    transition) or 1 (dynamic); any extra transition under any sampled
    assignment marks the output glitchy.  Sampling cannot prove
    absence — use :mod:`repro.hazards` for that — but presence here is
    a concrete witness.
    """
    values_start = netlist.evaluate(start)
    values_end = netlist.evaluate(end)
    verdicts = {name: False for name in netlist.outputs}
    for trial in range(trials):
        simulator = EventSimulator.with_random_delays(netlist, seed * 1000 + trial)
        waveforms = burst_response(
            simulator, start, end, seed=seed * 1000 + trial
        )
        for output in netlist.outputs:
            expected = int(values_start[output] != values_end[output])
            if waveforms[output].glitched(expected):
                verdicts[output] = True
    return verdicts
