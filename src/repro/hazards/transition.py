"""Transition spaces and function-hazard tests.

Definition 4.2 of the paper: the transition space ``T[α, β]`` is the
smallest Boolean subspace containing both endpoints — the supercube of
the two minterms.  During a generalized fundamental-mode input burst the
inputs trace an arbitrary monotone path from α to β inside T.

Function hazards are a property of the function alone; the matching
filter ignores them, but the dynamic-hazard detector needs to recognize
*function-hazard-free* (FHF) transition spaces (Theorem 4.1, condition 1).
"""

from __future__ import annotations

from typing import Iterator

from ..boolean.cover import Cover
from ..boolean.cube import Cube


def transition_space(start: int, end: int, nvars: int) -> Cube:
    """T[start, end]: the supercube of the two minterms."""
    return Cube.minterm(start, nvars).supercube(Cube.minterm(end, nvars))


def static_fhf(cover: Cover, space: Cube, value: bool) -> bool:
    """Is a static transition over ``space`` function-hazard-free?

    For value 1: f must be identically 1 on the space (the space is an
    implicant).  For value 0: no cube may intersect the space.
    """
    if value:
        return cover.contains_cube(space)
    return not any(cube.intersects(space) for cube in cover)


def dynamic_fhf(cover: Cover, start: int, end: int) -> bool:
    """Is the dynamic transition start→end function-hazard-free?

    f(start) ≠ f(end) is assumed.  The transition is FHF iff the
    function changes monotonically along *every* monotone input path —
    equivalently, orienting so f(start) = 0 and f(end) = 1, every ON
    point p inside the space satisfies f ≡ 1 over T[p, end] (once the
    function has risen it may never fall again on the way to ``end``).
    """
    f_start = cover.evaluate(start)
    f_end = cover.evaluate(end)
    if f_start == f_end:
        raise ValueError("transition is not dynamic")
    if f_start:
        start, end = end, start
    nvars = cover.nvars
    space = transition_space(start, end, nvars)
    end_cube = Cube.minterm(end, nvars)
    for point in space.minterms():
        if cover.evaluate(point):
            tail = Cube.minterm(point, nvars).supercube(end_cube)
            if not cover.contains_cube(tail):
                return False
    return True


def is_fhf(cover: Cover, start: int, end: int) -> bool:
    """Function-hazard-freedom of an arbitrary transition."""
    if cover.evaluate(start) == cover.evaluate(end):
        value = cover.evaluate(start)
        return static_fhf(cover, transition_space(start, end, cover.nvars), value)
    return dynamic_fhf(cover, start, end)


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
