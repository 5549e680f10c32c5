"""Sum-of-products covers built on :class:`repro.boolean.cube.Cube`.

A :class:`Cover` is an ordered list of cubes interpreted as their union
(an SOP expression / two-level AND-OR network).  The paper treats SOP
expressions and their two-level gate implementations interchangeably
(section 2.2); so do we — the *list of cubes*, including any redundant
ones, is the implementation whose hazards are analyzed.

The module supplies the classical two-level machinery the hazard
algorithms need: tautology checking, cube-in-cover containment, prime
expansion, complementation, and irredundant-cover extraction.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cube import Cube, bit_indices, popcount


class Cover:
    """An SOP expression: the union of a list of cubes.

    The cube *list* is meaningful (it is the two-level implementation),
    so equality is structural; use :meth:`equivalent` for functional
    equality.
    """

    __slots__ = ("cubes", "nvars")

    def __init__(self, cubes: Iterable[Cube], nvars: int) -> None:
        self.cubes = list(cubes)
        self.nvars = nvars
        for cube in self.cubes:
            if cube.nvars != nvars:
                raise ValueError("cube universe does not match the cover")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, nvars: int) -> "Cover":
        """The constant-0 function."""
        return cls([], nvars)

    @classmethod
    def one(cls, nvars: int) -> "Cover":
        """The constant-1 function (a single universal cube)."""
        return cls([Cube.universe(nvars)], nvars)

    @classmethod
    def from_strings(cls, terms: Iterable[str], names: Sequence[str]) -> "Cover":
        """Build a cover from cube strings like ``["ab'", "cd"]``."""
        return cls([Cube.from_string(t, names) for t in terms], len(names))

    @classmethod
    def from_patterns(cls, patterns: Iterable[str], nvars: int) -> "Cover":
        return cls([Cube.from_pattern(p).with_universe(nvars) for p in patterns], nvars)

    @classmethod
    def from_minterms(cls, points: Iterable[int], nvars: int) -> "Cover":
        return cls([Cube.minterm(p, nvars) for p in points], nvars)

    @classmethod
    def from_function(cls, func: Callable[[int], bool], nvars: int) -> "Cover":
        """Minterm cover of an arbitrary predicate on points (small n)."""
        return cls.from_minterms(
            (p for p in range(1 << nvars) if func(p)), nvars
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __getitem__(self, index: int) -> Cube:
        return self.cubes[index]

    def evaluate(self, point: int) -> bool:
        """Value of the function at a minterm."""
        return any(cube.contains_point(point) for cube in self.cubes)

    def num_literals(self) -> int:
        """Total literal count — the paper's area proxy for CMOS cells."""
        return sum(cube.num_literals for cube in self.cubes)

    def truth_table(self) -> int:
        """Dense truth table as an integer (bit ``p`` = f(p)); small n only."""
        if self.nvars > 16:
            raise ValueError("truth table too large")
        table = 0
        for cube in self.cubes:
            for point in cube.minterms():
                table |= 1 << point
        return table

    # ------------------------------------------------------------------
    # Cofactors and tautology
    # ------------------------------------------------------------------
    def cofactor(self, cube: Cube) -> "Cover":
        """Generalized cofactor of the cover with respect to a cube."""
        result = []
        for c in self.cubes:
            cof = c.cofactor(cube)
            if cof is not None:
                result.append(cof)
        return Cover(result, self.nvars)

    def cofactor_var(self, var: int, value: bool) -> "Cover":
        result = []
        for c in self.cubes:
            cof = c.cofactor_var(var, value)
            if cof is not None:
                result.append(cof)
        return Cover(result, self.nvars)

    def is_tautology(self) -> bool:
        """True iff the cover is the constant-1 function.

        Classical recursive Shannon-expansion tautology check with unate
        reduction.
        """
        return _tautology(self.cubes, self.nvars)

    def contains_cube(self, cube: Cube) -> bool:
        """True iff the cube is an implicant of the cover (cube ⊆ f)."""
        return self.cofactor(cube).is_tautology()

    def contains_cover(self, other: "Cover") -> bool:
        return all(self.contains_cube(c) for c in other.cubes)

    def equivalent(self, other: "Cover") -> bool:
        """Functional equality (ignores cube-list structure)."""
        if self.nvars != other.nvars:
            return False
        return self.contains_cover(other) and other.contains_cover(self)

    def single_cube_contains(self, cube: Cube) -> bool:
        """True iff some *single* cube of the cover contains ``cube``.

        This is the hazard-relevant covering notion: a transition
        subcube is glitch-safe only when one gate holds the output
        through the whole transition.
        """
        return any(c.contains(cube) for c in self.cubes)

    # ------------------------------------------------------------------
    # Primality
    # ------------------------------------------------------------------
    def is_implicant(self, cube: Cube) -> bool:
        return self.contains_cube(cube)

    def is_prime(self, cube: Cube) -> bool:
        """True iff ``cube`` is a prime implicant of this function."""
        if not self.contains_cube(cube):
            return False
        for var in bit_indices(cube.used):
            if self.contains_cube(cube.expand_var(var)):
                return False
        return True

    def expand_to_prime(self, cube: Cube) -> Cube:
        """Expand an implicant to a prime implicant (greedy, in variable
        order — deterministic)."""
        if not self.contains_cube(cube):
            raise ValueError("cube is not an implicant of the cover")
        current = cube
        changed = True
        while changed:
            changed = False
            for var in bit_indices(current.used):
                candidate = current.expand_var(var)
                if self.contains_cube(candidate):
                    current = candidate
                    changed = True
        return current

    # ------------------------------------------------------------------
    # Cover-level transforms
    # ------------------------------------------------------------------
    def union(self, other: "Cover") -> "Cover":
        if self.nvars != other.nvars:
            raise ValueError("covers live in different universes")
        return Cover(self.cubes + other.cubes, self.nvars)

    def with_cube(self, cube: Cube) -> "Cover":
        return Cover(self.cubes + [cube], self.nvars)

    def intersect(self, other: "Cover") -> "Cover":
        """Product of two covers: pairwise cube intersections.

        The result is empty (as a function) iff the two functions are
        disjoint, making this the satisfiability workhorse for hazard
        sensitization conditions.
        """
        if self.nvars != other.nvars:
            raise ValueError("covers live in different universes")
        cubes = []
        seen: set[Cube] = set()
        for a in self.cubes:
            for b in other.cubes:
                cab = a.intersection(b)
                if cab is not None and cab not in seen:
                    seen.add(cab)
                    cubes.append(cab)
        return Cover(cubes, self.nvars)

    def xor(self, other: "Cover") -> "Cover":
        """Symmetric difference of two covers (as functions)."""
        return self.intersect(other.complement()).union(
            other.intersect(self.complement())
        )

    def dedup(self) -> "Cover":
        """Drop exact duplicate cubes (keeps first occurrences)."""
        seen: set[Cube] = set()
        result = []
        for cube in self.cubes:
            if cube not in seen:
                seen.add(cube)
                result.append(cube)
        return Cover(result, self.nvars)

    def drop_contained(self) -> "Cover":
        """Drop cubes single-cube-contained in another cube of the list.

        Note: this *changes hazard behaviour* in general (it deletes
        gates); it is a synchronous-style simplification used by
        ``tech_decomp`` but never by ``async_tech_decomp``.
        """
        result: list[Cube] = []
        for i, cube in enumerate(self.cubes):
            contained = False
            for j, other in enumerate(self.cubes):
                if i == j:
                    continue
                if other.contains(cube) and not (cube.contains(other) and j > i):
                    contained = True
                    break
            if not contained:
                result.append(cube)
        return Cover(result, self.nvars)

    def irredundant(self) -> "Cover":
        """A functionally equivalent subset with no redundant cube.

        Greedy: removes cubes (largest first) whose deletion keeps the
        function unchanged.  Synchronous-style simplification — removing
        a redundant cube may *introduce* static-1 hazards (Figure 3).
        """
        cubes = sorted(self.cubes, key=lambda c: c.num_literals)
        kept = list(cubes)
        i = 0
        while i < len(kept):
            candidate = kept[i]
            rest = Cover(kept[:i] + kept[i + 1 :], self.nvars)
            if rest.contains_cube(candidate):
                kept.pop(i)
            else:
                i += 1
        return Cover(kept, self.nvars)

    def complement(self) -> "Cover":
        """Complement of the function, as a new cover (Shannon recursion)."""
        cubes = _complement(self.cubes, self.nvars, (1 << self.nvars) - 1)
        return Cover(cubes, self.nvars)

    def all_primes(self) -> list[Cube]:
        """All prime implicants of the function.

        Iterated-consensus closure: starting from the cover's cubes,
        alternately absorb contained cubes and add consensus cubes until
        no change.  The classical completeness theorem guarantees the
        fixpoint is exactly the set of prime implicants.  Fine for the
        cell/cluster sizes the mapper manipulates (≤ ~12 variables).
        """
        current: set[Cube] = set(self.dedup().cubes)
        changed = True
        while changed:
            changed = False
            # Absorption: drop cubes contained in another cube.
            absorbed = {
                c
                for c in current
                if not any(d != c and d.contains(c) for d in current)
            }
            if absorbed != current:
                current = absorbed
                changed = True
            pairs = list(current)
            for i, c in enumerate(pairs):
                for d in pairs[i + 1 :]:
                    cons = c.consensus(d)
                    if cons is None:
                        continue
                    if any(e.contains(cons) for e in current):
                        continue
                    current.add(cons)
                    changed = True
        return sorted(current, key=lambda c: (c.used, c.phase))

    def remap(self, mapping: Sequence[int], nvars: int) -> "Cover":
        return Cover([c.remap(mapping, nvars) for c in self.cubes], nvars)

    def minterms(self) -> set[int]:
        points: set[int] = set()
        for cube in self.cubes:
            points.update(cube.minterms())
        return points

    # ------------------------------------------------------------------
    # Formatting
    # ------------------------------------------------------------------
    def to_string(self, names: Optional[Sequence[str]] = None) -> str:
        if not self.cubes:
            return "0"
        return " + ".join(c.to_string(names) for c in self.cubes)

    def __repr__(self) -> str:
        return f"Cover([{', '.join(c.to_pattern() for c in self.cubes)}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.nvars == other.nvars and self.cubes == other.cubes

    def __hash__(self) -> int:
        return hash((tuple(self.cubes), self.nvars))


# ----------------------------------------------------------------------
# Recursive kernels
# ----------------------------------------------------------------------

def _tautology(cubes: list[Cube], nvars: int) -> bool:
    """Shannon-expansion tautology check on a cube list."""
    if not cubes:
        return False
    for cube in cubes:
        if cube.used == 0:
            return True
    # Unate reduction: a variable appearing in only one phase can be
    # cofactored against that phase's absence.
    pos = 0
    neg = 0
    for cube in cubes:
        pos |= cube.phase
        neg |= cube.used & ~cube.phase
    both = pos & neg
    unate = (pos | neg) & ~both
    if unate:
        # For each unate variable, the cover is a tautology only if the
        # cofactor against the *opposite* value is — cubes using the
        # variable can never cover the opposite half-space.
        reduced = []
        for cube in cubes:
            if cube.used & unate:
                continue
            reduced.append(cube)
        return _tautology(reduced, nvars)
    if both == 0:
        # No variables used at all and no universal cube.
        return False
    # Split on the most frequently used binate variable.
    counts: dict[int, int] = {}
    for cube in cubes:
        for var in bit_indices(cube.used & both):
            counts[var] = counts.get(var, 0) + 1
    var = max(counts, key=lambda v: (counts[v], -v))
    for value in (False, True):
        cof = []
        bit = 1 << var
        for cube in cubes:
            if cube.used & bit:
                if bool(cube.phase & bit) != value:
                    continue
                cof.append(Cube(cube.used & ~bit, cube.phase & ~bit, nvars))
            else:
                cof.append(cube)
        if not _tautology(cof, nvars):
            return False
    return True


def _complement(cubes: list[Cube], nvars: int, free_mask: int) -> list[Cube]:
    """Complement a cube list via Shannon recursion.

    ``free_mask`` tracks which variables are still free in the current
    subspace; bound variables are re-added by the caller.
    """
    if not cubes:
        return [Cube.universe(nvars)]
    for cube in cubes:
        if cube.used == 0:
            return []
    if len(cubes) == 1:
        # DeMorgan on a single cube.
        cube = cubes[0]
        result = []
        for var in bit_indices(cube.used):
            bit = 1 << var
            phase = 0 if cube.phase & bit else bit
            result.append(Cube(bit, phase, nvars))
        return result
    # Pick the most used variable to split on.
    counts: dict[int, int] = {}
    for cube in cubes:
        for var in bit_indices(cube.used):
            counts[var] = counts.get(var, 0) + 1
    var = max(counts, key=lambda v: (counts[v], -v))
    bit = 1 << var
    result = []
    for value in (False, True):
        cof = []
        for cube in cubes:
            if cube.used & bit:
                if bool(cube.phase & bit) != value:
                    continue
                cof.append(Cube(cube.used & ~bit, cube.phase & ~bit, nvars))
            else:
                cof.append(cube)
        sub = _complement(cof, nvars, free_mask & ~bit)
        for cube in sub:
            phase = cube.phase | (bit if value else 0)
            result.append(Cube(cube.used | bit, phase, nvars))
    return result
