"""Transition spaces and function-hazard tests.

Definition 4.2 of the paper: the transition space ``T[α, β]`` is the
smallest Boolean subspace containing both endpoints — the supercube of
the two minterms.  During a generalized fundamental-mode input burst the
inputs trace an arbitrary monotone path from α to β inside T.

Function hazards are a property of the function alone; the matching
filter ignores them, but the dynamic-hazard detector needs to recognize
*function-hazard-free* (FHF) transition spaces (Theorem 4.1, condition 1).

Both FHF tests are one mask test on the cover's truth table over the
transition space (:func:`space_table`): ``2^d`` bits for ``d`` changing
variables, whatever the support width.  The same projection masks
(:func:`lattice_masks`) index the changing sets of a whole start row in
:func:`repro.hazards.oracle.classify_rows`, and the event lattice a
replay's glitch schedule is read off
(:func:`repro.hazards.witness.glitch_schedule`).
"""

from __future__ import annotations

from typing import Iterator

from ..boolean.cover import Cover
from ..boolean.cube import Cube

#: Refuse lattice analysis past this many changing path literals.
MAX_EVENTS = 20

_LATTICES: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}


def lattice_masks(k: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Projection masks of the lattice of subsets of ``k`` events.

    State ``s`` is bit ``s`` of a ``2^k``-bit table; ``up[i]`` holds the
    states in which event ``i`` has happened, ``down[i]`` the others,
    and ``full`` every state.

    Every lattice of at most :data:`MAX_EVENTS` events, the largest a
    replay schedules, is built once and kept: ``2k + 1`` masks of
    ``2^k`` bits, about 9.5 MiB for all 21 lattices, 5 MiB of it at
    ``k = 20``.  A wider space (only :func:`space_table`'s
    function-hazard test over more than ``MAX_EVENTS`` changing
    variables asks for one) is built on each call and not kept.
    """
    cached = _LATTICES.get(k)
    if cached is None:
        size = 1 << k
        full = (1 << size) - 1
        up = []
        for i in range(k):
            # The upper half of a 2^(i+1)-bit period, doubled to fill.
            width = 2 << i
            mask = ((1 << (1 << i)) - 1) << (1 << i)
            while width < size:
                mask |= mask << width
                width <<= 1
            up.append(mask)
        cached = (tuple(up), tuple(full ^ mask for mask in up), full)
        if k <= MAX_EVENTS:
            _LATTICES[k] = cached
    return cached


def upward_closed(states: int, down: tuple[int, ...]) -> bool:
    """Is the state set closed under further events?

    ``down`` is :func:`lattice_masks`' middle entry.  A set is upward
    closed iff no single event leads out of it, so ``k`` shift tests
    decide it: shift the states lacking event ``i`` up by ``2^i`` and
    look for a landing outside the set.
    """
    for i, lacking in enumerate(down):
        if (states & lacking) << (1 << i) & ~states:
            return False
    return True


def space_table(cover: Cover, start: int, end: int) -> tuple[int, int]:
    """The cover's truth table over ``T[start, end]``, and its width ``d``.

    The ``d`` changing variables are numbered in index order; bit ``s``
    of the table is ``f`` at the point of the space where exactly the
    variables in ``s`` have left their ``start`` value.  So bit 0 is
    ``f(start)`` and the top bit ``f(end)``.
    """
    changing = start ^ end
    d = changing.bit_count()
    up, down, full = lattice_masks(d)
    fixed = ~changing
    table = 0
    for cube in cover.cubes:
        used = cube.used
        # Literals false at ``start``: on a fixed variable the cube is
        # off throughout the space, on a changing one it needs the switch.
        wrong = (cube.phase ^ start) & used
        if wrong & fixed:
            continue
        on = full
        lits = used & changing
        while lits:
            low = lits & -lits
            index = (changing & (low - 1)).bit_count()
            on &= up[index] if wrong & low else down[index]
            lits ^= low
        table |= on
        if table == full:
            break
    return table, d


def transition_space(start: int, end: int, nvars: int) -> Cube:
    """T[start, end]: the supercube of the two minterms."""
    return Cube.minterm(start, nvars).supercube(Cube.minterm(end, nvars))


def static_fhf(cover: Cover, space: Cube, value: bool) -> bool:
    """Is a static transition over ``space`` function-hazard-free?

    For value 1: f must be identically 1 on the space (the space is an
    implicant).  For value 0: f must be identically 0 on it.
    """
    free = ~space.used & ((1 << space.nvars) - 1)
    table, d = space_table(cover, space.phase, space.phase | free)
    return table == (lattice_masks(d)[2] if value else 0)


def dynamic_fhf(cover: Cover, start: int, end: int) -> bool:
    """Is the dynamic transition start→end function-hazard-free?

    f(start) ≠ f(end) is assumed.  The transition is FHF iff the
    function changes monotonically along *every* monotone input path:
    once f has taken its ``end`` value it never leaves it on the way to
    ``end``.
    """
    table, d = space_table(cover, start, end)
    if table & 1 == table >> ((1 << d) - 1):
        raise ValueError("transition is not dynamic")
    return table_fhf(table, d)


def is_fhf(cover: Cover, start: int, end: int) -> bool:
    """Function-hazard-freedom of an arbitrary transition."""
    return table_fhf(*space_table(cover, start, end))


def table_fhf(table: int, d: int) -> bool:
    """Function-hazard-freedom of the transition a :func:`space_table`
    result describes.

    Static: the table is constant.  Dynamic: the states where f has its
    ``end`` value are upward closed, so f never falls back on a step
    toward ``end``.
    """
    _, down, full = lattice_masks(d)
    f_start = table & 1
    if f_start == table >> ((1 << d) - 1):
        return table == (full if f_start else 0)
    return upward_closed(full ^ table if f_start else table, down)


def monotone_paths(start: int, end: int) -> Iterator[list[int]]:
    """Enumerate every monotone input path from ``start`` to ``end``.

    Each changing variable flips exactly once; the orders are all
    permutations of the changing set.  Exponential — oracle use only.
    """
    from itertools import permutations

    diff = [i for i in range(max(start, end).bit_length() + 1) if (start ^ end) >> i & 1]
    for order in permutations(diff):
        path = [start]
        point = start
        for var in order:
            point ^= 1 << var
            path.append(point)
        yield path
