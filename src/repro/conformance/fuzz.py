"""Seeded fuzzing of the map→certify pipeline, with a deterministic shrinker.

The harness generates small random equation networks, maps them through
the real pipeline, and runs the independent certifier on the result:

* in the default mode every case must certify — a rejection is a mapper
  (or certifier) bug and the case is shrunk to a minimal reproducer;
* in ``hazardize`` mode the mapped netlist is deliberately broken with
  :func:`repro.testing.faults.seed_hazard` first and every case must be
  *rejected* — an acceptance is a certifier blind spot.

Determinism is the contract everywhere: the same ``seed`` produces the
same case, the same mapped netlist, the same certificate digests, and —
because the shrinker explores candidates in a fixed order and accepts
only strictly smaller still-failing ones — the same minimal reproducer.
Reproducers are written to the committed corpus
(``tests/data/corpus/*.json``, schema ``repro-corpus/v1``) and replayed
as parametrized tier-1 tests (``pytest -m corpus``).

This module drives the mapper, so unlike
:mod:`repro.conformance.certifier` it may import the mapping layer;
the certifier itself stays independent.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from ..boolean.expr import And, Expr, Lit, Not, Or, parse
from ..library import anncache
from ..network.netlist import Netlist
from ..testing.faults import HazardSeed, seed_hazard
from .certifier import Certificate, certify_mapping

CORPUS_SCHEMA = "repro-corpus/v1"

#: Variable pool for generated networks (supports stay small enough for
#: the certifier's exhaustive path).
_VARS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class FuzzCase:
    """One reproducible fuzz input: a spec network plus run knobs."""

    name: str
    seed: int
    equations: dict
    library: str = "CMOS3"
    max_depth: int = 3
    hazardize: bool = False
    expect: str = "certified"
    description: str = ""
    mapped_blif: Optional[str] = None

    def source(self) -> Netlist:
        return Netlist.from_equations(dict(self.equations), name=self.name)

    def size(self) -> int:
        """Shrinker metric: strictly decreasing ⇒ guaranteed fixpoint."""
        total = 8 * len(self.equations)
        for text in self.equations.values():
            expr = parse(text)
            total += expr.num_literals() + expr.depth()
        return total

    def to_dict(self) -> dict:
        payload = {
            "schema": CORPUS_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "equations": dict(self.equations),
            "library": self.library,
            "max_depth": self.max_depth,
            "hazardize": self.hazardize,
            "expect": self.expect,
            "description": self.description,
        }
        if self.mapped_blif is not None:
            payload["mapped_blif"] = self.mapped_blif
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCase":
        if payload.get("schema") != CORPUS_SCHEMA:
            raise ValueError(
                f"corpus entry schema {payload.get('schema')!r} is not "
                f"{CORPUS_SCHEMA!r}"
            )
        return cls(
            name=str(payload["name"]),
            seed=int(payload["seed"]),
            equations=dict(payload["equations"]),
            library=str(payload.get("library", "CMOS3")),
            max_depth=int(payload.get("max_depth", 3)),
            hazardize=bool(payload.get("hazardize", False)),
            expect=str(payload.get("expect", "certified")),
            description=str(payload.get("description", "")),
            mapped_blif=payload.get("mapped_blif"),
        )


@dataclass
class CaseOutcome:
    """What one fuzz case produced end to end."""

    case: FuzzCase
    certificate: Certificate
    mapped: Netlist
    seeded: Optional[HazardSeed] = None

    @property
    def expected_verdict(self) -> str:
        if self.case.hazardize and self.seeded is None:
            # Nothing was seedable: the clean mapping must certify.
            return "certified"
        return self.case.expect

    @property
    def ok(self) -> bool:
        return self.certificate.verdict == self.expected_verdict


@dataclass
class FuzzReport:
    """Aggregate of one :func:`fuzz` run."""

    iterations: int
    seed: int
    hazardize: bool
    failures: list = field(default_factory=list)
    seeded: int = 0
    certified: int = 0
    rejected: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------


def _random_expr(rng: random.Random, names: list, depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        return Lit(rng.choice(names), rng.random() < 0.7)
    choice = rng.random()
    if choice < 0.45:
        terms = tuple(
            _random_expr(rng, names, depth - 1)
            for _ in range(rng.randint(2, 3))
        )
        return Or(terms)
    if choice < 0.9:
        terms = tuple(
            _random_expr(rng, names, depth - 1)
            for _ in range(rng.randint(2, 3))
        )
        return And(terms)
    return Not(_random_expr(rng, names, depth - 1))


def random_case(
    seed: int,
    *,
    library: str = "CMOS3",
    max_depth: int = 3,
    hazardize: bool = False,
) -> FuzzCase:
    """The deterministic fuzz case of one seed."""
    rng = random.Random(f"repro-fuzz:{seed}")
    names = list(_VARS[: rng.randint(2, len(_VARS))])
    n_outputs = rng.randint(1, 3)
    equations = {}
    for index in range(n_outputs):
        expr = _random_expr(rng, names, rng.randint(1, 3))
        equations[f"f{index}"] = expr.to_string()
    return FuzzCase(
        name=f"fuzz-{seed}",
        seed=seed,
        equations=equations,
        library=library,
        max_depth=max_depth,
        hazardize=hazardize,
        expect="rejected" if hazardize else "certified",
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def run_case(
    case: FuzzCase,
    *,
    cache_dir: anncache.CacheDir = anncache.DISABLED,
    metrics=None,
    tracer=None,
) -> CaseOutcome:
    """Map (or load) the case's netlist and certify it.

    Hermetic by default: the annotation disk cache is disabled, while
    the process-wide warm library cache keeps repeated iterations fast.
    """
    import io as _io

    from ..api.facade import shared_library
    from ..mapping.mapper import MappingOptions, map_network

    source = case.source()
    library = shared_library(case.library)
    if case.mapped_blif is not None:
        from ..io import read_blif

        mapped = read_blif(_io.StringIO(case.mapped_blif))
    else:
        options = MappingOptions(
            max_depth=case.max_depth, annotation_cache_dir=cache_dir
        )
        mapped = map_network(source, library, options).mapped
    seeded = None
    if case.hazardize:
        seeded = seed_hazard(mapped, reference=source, seed=case.seed)
        if seeded is not None:
            mapped = seeded.netlist
    certificate = certify_mapping(
        source,
        mapped,
        library,
        seed=case.seed,
        metrics=metrics,
        tracer=tracer,
    )
    return CaseOutcome(
        case=case, certificate=certificate, mapped=mapped, seeded=seeded
    )


def fuzz(
    iterations: int,
    *,
    seed: int = 0,
    library: str = "CMOS3",
    max_depth: int = 3,
    hazardize: bool = False,
    cache_dir: anncache.CacheDir = anncache.DISABLED,
    metrics=None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run ``iterations`` seeded cases; failures come back shrunk."""
    report = FuzzReport(
        iterations=iterations, seed=seed, hazardize=hazardize
    )
    started = time.perf_counter()
    for index in range(iterations):
        case = random_case(
            seed + index,
            library=library,
            max_depth=max_depth,
            hazardize=hazardize,
        )
        outcome = run_case(case, cache_dir=cache_dir, metrics=metrics)
        if outcome.seeded is not None:
            report.seeded += 1
        if outcome.certificate.certified:
            report.certified += 1
        else:
            report.rejected += 1
        if not outcome.ok:
            if log is not None:
                log(
                    f"case {case.name}: expected {outcome.expected_verdict}, "
                    f"got {outcome.certificate.verdict} — shrinking"
                )
            minimal = shrink(
                case, _expectation_failure(cache_dir), cache_dir=cache_dir
            )
            report.failures.append((minimal, outcome.certificate))
    report.elapsed = time.perf_counter() - started
    return report


def _expectation_failure(
    cache_dir: anncache.CacheDir,
) -> Callable[[FuzzCase], bool]:
    def failing(case: FuzzCase) -> bool:
        try:
            return not run_case(case, cache_dir=cache_dir).ok
        except Exception:
            # A case the pipeline cannot even process is not a smaller
            # reproducer of the observed verdict mismatch.
            return False

    return failing


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _hoist_candidates(expr: Expr) -> Iterable[Expr]:
    """Strictly smaller rewrites of the root, in deterministic order."""
    if isinstance(expr, Not):
        yield expr.child
        for child in _hoist_candidates(expr.child):
            yield Not(child)
        return
    if isinstance(expr, (And, Or)):
        for term in expr.terms:
            yield term
        if len(expr.terms) > 2:
            for drop in range(len(expr.terms)):
                kept = tuple(
                    t for i, t in enumerate(expr.terms) if i != drop
                )
                yield type(expr)(kept)
        for index, term in enumerate(expr.terms):
            for candidate in _hoist_candidates(term):
                terms = list(expr.terms)
                terms[index] = candidate
                yield type(expr)(tuple(terms))


def shrink(
    case: FuzzCase,
    failing: Callable[[FuzzCase], bool],
    *,
    cache_dir: anncache.CacheDir = anncache.DISABLED,
    max_rounds: int = 40,
) -> FuzzCase:
    """Minimize a failing case while ``failing`` stays true.

    Deterministic greedy descent: drop whole outputs first, then hoist
    subexpressions (replace an operator by one of its operands, or drop
    one operand of a wide operator).  Only strictly smaller candidates
    are accepted, so the loop terminates; candidate order is fixed, so
    the same seed always shrinks to the same minimal reproducer.
    """
    if not failing(case):
        return case
    current = case
    for _ in range(max_rounds):
        improved = False
        # Pass 1: drop outputs.
        if len(current.equations) > 1:
            for name in sorted(current.equations):
                equations = {
                    k: v for k, v in current.equations.items() if k != name
                }
                candidate = replace(current, equations=equations)
                if failing(candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                continue
        # Pass 2: hoist subexpressions, first improvement wins.
        for name in sorted(current.equations):
            expr = parse(current.equations[name])
            for rewrite in _hoist_candidates(expr):
                equations = dict(current.equations)
                equations[name] = rewrite.to_string()
                candidate = replace(current, equations=equations)
                if candidate.size() >= current.size():
                    continue
                if failing(candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return current


# ----------------------------------------------------------------------
# The committed corpus
# ----------------------------------------------------------------------


def write_corpus_entry(path: Union[str, Path], case: FuzzCase) -> Path:
    from ..obs.export import _atomic_write_text

    return _atomic_write_text(
        Path(path), json.dumps(case.to_dict(), indent=2, sort_keys=True) + "\n"
    )


def load_corpus_entry(path: Union[str, Path]) -> FuzzCase:
    with open(path) as handle:
        return FuzzCase.from_dict(json.load(handle))


def corpus_entries(directory: Union[str, Path]) -> list[Path]:
    """The committed corpus files, in stable (sorted) order."""
    return sorted(Path(directory).glob("*.json"))


def replay_corpus_entry(
    entry: Union[str, Path, FuzzCase],
    *,
    cache_dir: anncache.CacheDir = anncache.DISABLED,
) -> CaseOutcome:
    """Re-run one corpus reproducer; ``outcome.ok`` is the regression gate."""
    case = (
        entry
        if isinstance(entry, FuzzCase)
        else load_corpus_entry(entry)
    )
    return run_case(case, cache_dir=cache_dir)


__all__ = [
    "CORPUS_SCHEMA",
    "CaseOutcome",
    "FuzzCase",
    "FuzzReport",
    "corpus_entries",
    "fuzz",
    "load_corpus_entry",
    "random_case",
    "replay_corpus_entry",
    "run_case",
    "shrink",
    "write_corpus_entry",
]
