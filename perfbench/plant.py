"""Planted-hazard variants of a mapped netlist (certify-actel's negatives).

The construction is the Shannon expansion the committed fuzz corpus's
``hazardize`` entries use: the ``.names`` block defining one output is
replaced by the two-level form ``v*f(v=1) + v'*f(v=0)`` of its
collapsed function.
Every product then carries ``v``, so toggling ``v`` between two points
where ``f`` holds uncovers the output for a moment — a static-1 logic
hazard — while the function is unchanged.  The toggle is chosen where
the source network is hazard-free, so a sound certifier must reject
the variant for a new hazard with equivalence intact.

The rewrite is done on the BLIF text, so it needs nothing from the
mapper; collapsing and the source-side check use the program's Boolean
and oracle primitives.
"""

from __future__ import annotations

#: Largest planted-output support; certify the variants with this as
#: ``exhaustive_limit`` so every transition of the output is checked.
MAX_SUPPORT = 6


def _blocks(blif: str) -> tuple[list[str], list[list[str]]]:
    """Split BLIF text into header lines and ``.names`` blocks."""
    header: list[str] = []
    blocks: list[list[str]] = []
    for line in blif.splitlines():
        if line.startswith(".names"):
            blocks.append([line])
        elif line.startswith(".") or not blocks:
            header.append(line)
        else:
            blocks[-1].append(line)
    return header, blocks


def replace_output_block(blif: str, output: str, inputs, rows) -> str:
    """``blif`` with ``output``'s ``.names`` block replaced by a new SOP."""
    header, blocks = _blocks(blif)
    new_block = [".names " + " ".join([*inputs, output]),
                 *(f"{row} 1" for row in rows)]
    replaced = False
    for index, block in enumerate(blocks):
        if block[0].split()[-1] == output:
            blocks[index] = new_block
            replaced = True
    if not replaced:
        raise ValueError(f"output {output!r} has no .names block")
    end = [line for line in header if line.startswith(".end")]
    head = [line for line in header if not line.startswith(".end")]
    lines = head + [line for block in blocks for line in block] + end
    return "\n".join(lines) + "\n"


def plant_hazard(source_blif: str, mapped_blif: str) -> tuple[str, dict]:
    """The planted-hazard variant of ``mapped_blif``.

    Candidates are (output, variable) pairs whose output has at most
    :data:`MAX_SUPPORT` support variables, so the certifier checks the
    output exhaustively and must find the hazard.  The one with the
    fewest Shannon products, then the smallest support, then the first
    names wins: the certifier's cost grows steeply with the products,
    and a seeded pick among ties swung certify-actel's pass by 40 %
    between seeds.  Returns the variant's BLIF text and the planted
    transition (output, toggled variable, start and end points).
    """
    from repro.api.facade import read_blif_text
    from repro.boolean.paths import label_expression
    from repro.hazards.oracle import classify_transition

    source = read_blif_text(source_blif)
    mapped = read_blif_text(mapped_blif)
    candidates = []
    for output in sorted(mapped.outputs):
        expr = mapped.collapse(output)
        reference = source.collapse(output)
        support = sorted(expr.support() | reference.support())
        nvars = len(support)
        if not 2 <= nvars <= MAX_SUPPORT:
            continue
        cubes = expr.to_cover(support).cubes
        reference_ls = label_expression(reference, support)
        for var, name in enumerate(support):
            if name not in expr.support():
                continue
            bit = 1 << var
            for point in range(1 << nvars):
                if point & bit:
                    continue
                env = {n: bool(point >> i & 1) for i, n in enumerate(support)}
                if not (expr.evaluate(env)
                        and expr.evaluate(dict(env, **{name: True}))):
                    continue
                verdict = classify_transition(reference_ls, point | bit, point)
                if not (verdict.function_hazard or verdict.logic_hazard):
                    rows = _shannon_rows(cubes, var, nvars)
                    candidates.append((len(rows), nvars, output, name,
                                       support, rows, point))
                    break
    if not candidates:
        raise ValueError("no output admits a planted hazard")
    _, _, output, name, support, rows, point = min(
        candidates, key=lambda c: c[:4])
    bit = 1 << support.index(name)
    where = {"output": output, "var": name, "start": point | bit,
             "end": point}
    return replace_output_block(mapped_blif, output, support, rows), where


def _shannon_rows(cubes, var: int, nvars: int) -> list[str]:
    """BLIF rows of ``v*f(v=1) + v'*f(v=0)`` from ``f``'s cube list."""
    rows = []
    for positive in (True, False):
        for cube in cubes:
            if cube.used >> var & 1 and bool(cube.phase >> var & 1) != positive:
                continue
            row = []
            for i in range(nvars):
                if i == var:
                    row.append("1" if positive else "0")
                elif cube.used >> i & 1:
                    row.append("1" if cube.phase >> i & 1 else "0")
                else:
                    row.append("-")
            rows.append("".join(row))
    return rows
