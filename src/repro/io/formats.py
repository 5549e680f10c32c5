"""File formats: equation files and BLIF-style netlists.

Interchange with the ecosystems the paper sits between: logic
optimizers emit equation files (``.eqn``-style), and mapped networks
are exchanged as BLIF.  The dialects here are deliberately small but
round-trip everything this package produces.
"""

from __future__ import annotations

from typing import TextIO

from ..boolean.cover import Cover
from ..boolean.cube import Cube
from ..network.netlist import Netlist


class FormatError(Exception):
    """Raised on malformed input files."""


# ----------------------------------------------------------------------
# Equation files
# ----------------------------------------------------------------------

def write_equations(netlist: Netlist, stream: TextIO) -> None:
    """Write a network as ``name = expression;`` lines.

    Gates are flattened per output (structure of each output cone is
    preserved by the expression's shape).
    """
    stream.write(f"# network {netlist.name}\n")
    stream.write(f".inputs {' '.join(netlist.inputs)}\n")
    for output in netlist.outputs:
        expr = netlist.collapse(output)
        stream.write(f"{output} = {expr.to_string()};\n")


def read_equations(stream: TextIO, name: str = "net") -> Netlist:
    """Read a ``name = expression;`` file back into a network."""
    equations: dict[str, str] = {}
    declared_inputs: list[str] | None = None
    buffer = ""
    for raw in stream:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".inputs"):
            declared_inputs = line.split()[1:]
            continue
        buffer += " " + line
        while ";" in buffer:
            statement, buffer = buffer.split(";", 1)
            if "=" not in statement:
                raise FormatError(f"missing '=' in {statement.strip()!r}")
            target, text = statement.split("=", 1)
            target = target.strip()
            if not target.isidentifier():
                raise FormatError(f"bad signal name {target!r}")
            if target in equations:
                raise FormatError(f"duplicate definition of {target!r}")
            equations[target] = text.strip()
    if buffer.strip():
        raise FormatError("trailing input without ';'")
    if not equations:
        raise FormatError("no equations found")
    return Netlist.from_equations(equations, name=name, inputs=declared_inputs)


# ----------------------------------------------------------------------
# BLIF (subset)
# ----------------------------------------------------------------------

def write_blif(netlist: Netlist, stream: TextIO) -> None:
    """Write the network in BLIF: one ``.names`` block per gate.

    Gate functions are emitted as their SOP over the fanins, cube per
    line — structure-preserving for two-level gate functions (library
    cells and base gates alike).
    """
    stream.write(f".model {netlist.name}\n")
    stream.write(".inputs " + " ".join(netlist.inputs) + "\n")
    stream.write(".outputs " + " ".join(netlist.outputs) + "\n")
    for node_name in netlist.topological_order():
        node = netlist.nodes[node_name]
        if not node.is_gate():
            continue
        assert node.func is not None
        fanins = list(node.fanins)
        cover = node.func.to_cover(fanins)
        stream.write(".names " + " ".join(fanins + [node_name]) + "\n")
        for cube in cover:
            row = []
            for i in range(len(fanins)):
                if not cube.used >> i & 1:
                    row.append("-")
                elif cube.phase >> i & 1:
                    row.append("1")
                else:
                    row.append("0")
            stream.write("".join(row) + " 1\n")
    for output in netlist.outputs:
        driver = netlist.nodes[output].fanins[0]
        if driver != output:
            stream.write(f".names {driver} {output}\n1 1\n")
    stream.write(".end\n")


def read_blif(stream: TextIO) -> Netlist:
    """Read the BLIF subset written by :func:`write_blif`."""
    lines: list[str] = []
    for raw in stream:
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            raise FormatError("line continuations are not supported")
        if line.strip():
            lines.append(line.strip())

    model = "net"
    inputs: list[str] = []
    outputs: list[str] = []
    tables: list[tuple[list[str], str, list[str]]] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if line.startswith(".model"):
            parts = line.split()
            model = parts[1] if len(parts) > 1 else model
        elif line.startswith(".inputs"):
            inputs.extend(line.split()[1:])
        elif line.startswith(".outputs"):
            outputs.extend(line.split()[1:])
        elif line.startswith(".names"):
            signals = line.split()[1:]
            if not signals:
                raise FormatError(".names with no signals")
            *fanins, target = signals
            rows = []
            while index < len(lines) and not lines[index].startswith("."):
                rows.append(lines[index])
                index += 1
            tables.append((fanins, target, rows))
        elif line.startswith(".end"):
            break
        else:
            raise FormatError(f"unsupported BLIF construct {line!r}")

    net = Netlist(model)
    alias: dict[str, str] = {}
    for name in inputs:
        net.add_input(name)
        alias[name] = name
    pending = list(tables)
    while pending:
        progress = False
        for entry in list(pending):
            fanins, target, rows = entry
            if not all(f in alias for f in fanins):
                continue
            cubes = []
            for row in rows:
                parts = row.split()
                if len(parts) != 2 or parts[1] != "1":
                    raise FormatError(f"unsupported .names row {row!r}")
                pattern = parts[0]
                if len(pattern) != len(fanins):
                    raise FormatError(f"row width mismatch in {row!r}")
                used = phase = 0
                for i, ch in enumerate(pattern):
                    if ch == "1":
                        used |= 1 << i
                        phase |= 1 << i
                    elif ch == "0":
                        used |= 1 << i
                    elif ch != "-":
                        raise FormatError(f"bad cube character {ch!r}")
                cubes.append(Cube(used, phase, len(fanins)))
            cover = Cover(cubes, len(fanins))
            # Outputs get their own alias node so a later buffer block
            # or a name collision cannot clash with the output name.
            if target in outputs or target in net.nodes:
                gate_name = net.fresh_name(f"{target}_g")
            else:
                gate_name = target
            net.add_sop_gate(gate_name, cover, [alias[f] for f in fanins])
            alias[target] = gate_name
            pending.remove(entry)
            progress = True
        if not progress:
            raise FormatError("cyclic or dangling .names dependencies")
    for output in outputs:
        if output not in alias:
            raise FormatError(f"output {output!r} is never driven")
        net.add_output(output, alias[output])
    return net
