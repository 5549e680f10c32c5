"""Multi-level logic networks (Boolean DAGs).

The technology mapper's subject: a directed acyclic graph of logic
nodes, each computing a Boolean-factored-form expression of its fanins.
Primary inputs feed the combinational cloud; primary outputs name the
functions the burst-mode synthesizer produced (next-state and output
equations — the storage elements stay outside, as Figure 1's
architecture prescribes).

A *mapped* network is the same structure whose gate nodes additionally
reference library cells with a pin binding, enabling area/delay
reporting against the cell library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

from ..boolean.bdd import BddManager
from ..boolean.cover import Cover
from ..boolean.expr import And, Const, Expr, Lit, Not, Or, Var, parse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..library.cell import LibraryCell


class NetlistError(Exception):
    """Raised on malformed network operations."""


@dataclass
class Node:
    """One vertex of the network DAG.

    ``kind`` is ``"input"``, ``"gate"`` or ``"output"``.  A gate's
    ``func`` is an expression over its fanin names; an output node is an
    identity alias of its single fanin.  Mapped gates carry ``cell``
    (the library cell) whose pins bind positionally to ``fanins``.
    """

    name: str
    kind: str
    fanins: list[str] = field(default_factory=list)
    func: Optional[Expr] = None
    cell: Optional["LibraryCell"] = None

    def is_input(self) -> bool:
        return self.kind == "input"

    def is_gate(self) -> bool:
        return self.kind == "gate"

    def is_output(self) -> bool:
        return self.kind == "output"

    def is_constant(self) -> bool:
        return self.kind == "const"


class Netlist:
    """A combinational logic network."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self._counter = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        if name in self.nodes:
            raise NetlistError(f"node {name!r} already exists")
        self.nodes[name] = Node(name, "input")
        self.inputs.append(name)
        return name

    def add_constant(self, name: str, value: bool) -> str:
        """A tie-high/tie-low node (an output that never toggles)."""
        if name in self.nodes:
            raise NetlistError(f"node {name!r} already exists")
        self.nodes[name] = Node(name, "const", [], Const(bool(value)))
        return name

    def add_gate(
        self,
        name: str,
        func: Expr,
        fanins: Optional[Sequence[str]] = None,
        cell: Optional["LibraryCell"] = None,
    ) -> str:
        """Add a gate computing ``func`` (an expression over fanin names).

        ``fanins`` defaults to the sorted support of ``func``.
        """
        if name in self.nodes:
            raise NetlistError(f"node {name!r} already exists")
        support = func.support()
        if fanins is None:
            fanins = sorted(support)
        missing = support - set(fanins)
        if missing:
            raise NetlistError(f"gate {name!r} misses fanins {sorted(missing)}")
        for fanin in fanins:
            if fanin not in self.nodes:
                raise NetlistError(f"gate {name!r} references unknown {fanin!r}")
        self.nodes[name] = Node(name, "gate", list(fanins), func, cell)
        return name

    def add_sop_gate(
        self, name: str, cover: Cover, fanin_names: Sequence[str]
    ) -> str:
        """Add a gate whose function is given as an SOP cover."""
        return self.add_gate(name, cover_to_expr(cover, fanin_names), fanin_names)

    def add_output(self, name: str, driver: str) -> str:
        if name in self.nodes:
            raise NetlistError(f"node {name!r} already exists")
        if driver not in self.nodes:
            raise NetlistError(f"output {name!r} references unknown {driver!r}")
        self.nodes[name] = Node(name, "output", [driver])
        self.outputs.append(name)
        return name

    def fresh_name(self, prefix: str = "n") -> str:
        while True:
            self._counter += 1
            candidate = f"{prefix}{self._counter}"
            if candidate not in self.nodes:
                return candidate

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def gates(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.is_gate()]

    def fanouts(self) -> dict[str, list[str]]:
        """Map node name → names of nodes reading it."""
        result: dict[str, list[str]] = {name: [] for name in self.nodes}
        for node in self.nodes.values():
            for fanin in node.fanins:
                result[fanin].append(node.name)
        return result

    def topological_order(self) -> list[str]:
        """Inputs first, then gates/outputs in dependency order."""
        order: list[str] = []
        state: dict[str, int] = {}

        def visit(name: str) -> None:
            status = state.get(name, 0)
            if status == 1:
                raise NetlistError(f"combinational cycle through {name!r}")
            if status == 2:
                return
            state[name] = 1
            for fanin in self.nodes[name].fanins:
                visit(fanin)
            state[name] = 2
            order.append(name)

        for name in self.inputs:
            visit(name)
        for name in self.nodes:
            visit(name)
        return order

    def validate(self) -> None:
        """Check the network is a well-formed combinational DAG."""
        self.topological_order()
        for node in self.nodes.values():
            if node.is_gate() and node.func is None:
                raise NetlistError(f"gate {node.name!r} has no function")
            if node.is_output() and len(node.fanins) != 1:
                raise NetlistError(f"output {node.name!r} needs one driver")

    def gate_count(self) -> int:
        return len(self.gates())

    def literal_count(self) -> int:
        return sum(n.func.num_literals() for n in self.gates() if n.func)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        """Binary simulation; returns values of every node."""
        values: dict[str, bool] = {}
        for name in self.topological_order():
            node = self.nodes[name]
            if node.is_input():
                values[name] = bool(assignment[name])
            elif node.is_output():
                values[name] = values[node.fanins[0]]
            else:
                assert node.func is not None
                values[name] = node.func.evaluate(values)
        return values

    def collapse(self, name: str, stop_at: Optional[set[str]] = None) -> Expr:
        """Flatten a node into an expression over PIs (or ``stop_at``).

        Substitution only — no simplification — so the result's
        *structure* mirrors the network (fanout duplicated per path),
        which is exactly what hazard analysis wants.
        """
        stop = set(stop_at or ())
        memo: dict[str, Expr] = {}

        def build(current: str) -> Expr:
            if current in memo:
                return memo[current]
            node = self.nodes[current]
            if node.is_input() or current in stop:
                result: Expr = Var(current)
            elif node.is_output():
                result = build(node.fanins[0])
            else:
                assert node.func is not None
                mapping = {fanin: build(fanin) for fanin in node.fanins}
                result = node.func.substitute(mapping)
            memo[current] = result
            return result

        return build(name)

    def output_covers(self, names: Optional[Sequence[str]] = None) -> dict[str, Cover]:
        """Flattened SOP of each output over the primary inputs."""
        ordering = list(names or self.inputs)
        result = {}
        for output in self.outputs:
            result[output] = self.collapse(output).to_cover(ordering)
        return result

    def equivalent(self, other: "Netlist") -> bool:
        """Functional equivalence over shared input/output names (BDD)."""
        if set(self.inputs) != set(other.inputs):
            return False
        if set(self.outputs) != set(other.outputs):
            return False
        order = sorted(self.inputs)
        manager = BddManager(len(order))
        for output in self.outputs:
            mine = manager.from_expr(self.collapse(output), order)
            theirs = manager.from_expr(other.collapse(output), order)
            if mine != theirs:
                return False
        return True

    # ------------------------------------------------------------------
    # Mapped-network metrics
    # ------------------------------------------------------------------
    def total_area(self) -> float:
        """Sum of cell areas (mapped gates only)."""
        return sum(n.cell.area for n in self.gates() if n.cell is not None)

    def critical_path_delay(self) -> float:
        """Longest input→output delay using per-cell delays.

        Unmapped gates count one unit each.
        """
        arrival: dict[str, float] = {}
        worst = 0.0
        for name in self.topological_order():
            node = self.nodes[name]
            if node.is_input():
                arrival[name] = 0.0
            elif node.is_output():
                arrival[name] = arrival[node.fanins[0]]
            else:
                base = max((arrival[f] for f in node.fanins), default=0.0)
                delay = node.cell.delay if node.cell is not None else 1.0
                arrival[name] = base + delay
            worst = max(worst, arrival[name])
        return worst

    def cell_usage(self) -> dict[str, int]:
        usage: dict[str, int] = {}
        for node in self.gates():
            if node.cell is not None:
                usage[node.cell.name] = usage.get(node.cell.name, 0) + 1
        return usage

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_equations(
        cls,
        equations: Mapping[str, str | Expr],
        name: str = "net",
        inputs: Optional[Sequence[str]] = None,
    ) -> "Netlist":
        """Build a network from output-name → expression-text equations.

        Every variable not defined by an equation becomes a primary
        input; each equation becomes one logic node plus an output
        alias.  Equations may reference other equations (acyclically).
        """
        net = cls(name)
        exprs: dict[str, Expr] = {}
        for out, text in equations.items():
            exprs[out] = parse(text) if isinstance(text, str) else text
        referenced: set[str] = set()
        for expr in exprs.values():
            referenced |= expr.support()
        pi_names = [v for v in sorted(referenced) if v not in exprs]
        if inputs is not None:
            declared = list(inputs)
            for pi in pi_names:
                if pi not in declared:
                    raise NetlistError(f"undeclared primary input {pi!r}")
            pi_names = declared
        for pi in pi_names:
            net.add_input(pi)
        # Add equation nodes in dependency order.
        remaining = dict(exprs)
        placed: set[str] = set(pi_names)
        while remaining:
            progress = False
            for out in list(remaining):
                expr = remaining[out]
                if expr.support() <= placed:
                    gate = net.add_gate(f"{out}__logic", expr.rename(
                        {o: f"{o}__logic" for o in exprs if o in expr.support()}
                    ))
                    placed.add(out)
                    del remaining[out]
                    progress = True
            if not progress:
                raise NetlistError("cyclic equation dependencies")
        for out in exprs:
            net.add_output(out, f"{out}__logic")
        return net

    def copy(self, name: Optional[str] = None) -> "Netlist":
        clone = Netlist(name or self.name)
        clone.inputs = list(self.inputs)
        clone.outputs = list(self.outputs)
        clone._counter = self._counter
        for key, node in self.nodes.items():
            clone.nodes[key] = Node(
                node.name, node.kind, list(node.fanins), node.func, node.cell
            )
        return clone

    def stats(self) -> dict[str, float]:
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": self.gate_count(),
            "literals": self.literal_count(),
            "area": self.total_area(),
            "delay": self.critical_path_delay(),
        }

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, {len(self.inputs)} in, "
            f"{len(self.outputs)} out, {self.gate_count()} gates)"
        )


def cover_to_expr(cover: Cover, names: Sequence[str]) -> Expr:
    """Literal translation of an SOP cover to an expression tree.

    Cube order and literal order are preserved so the expression's
    structure matches the two-level implementation the cover denotes.
    """
    from ..boolean.cube import bit_indices

    if not cover.cubes:
        return Const(False)
    products: list[Expr] = []
    for cube in cover:
        literals: list[Expr] = [
            Lit(names[v], bool(cube.phase & (1 << v))) for v in bit_indices(cube.used)
        ]
        if not literals:
            products.append(Const(True))
        elif len(literals) == 1:
            products.append(literals[0])
        else:
            products.append(And(tuple(literals)))
    if len(products) == 1:
        return products[0]
    return Or(tuple(products))
