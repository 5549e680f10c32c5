"""The independent mapping certifier (``repro-cert/v1``).

Given a source network, a mapped netlist, and (optionally) the cell
library, :func:`certify_mapping` re-proves the two contracts the mapper
claims — functional equivalence and Theorem 3.2 hazard containment —
using only ground-truth machinery:

* **equivalence** is established twice, by independent methods: ROBDD
  comparison (:mod:`repro.boolean.bdd`) and, when the output's support
  fits, a dense truth table (:mod:`repro.boolean.truthtable`).  The two
  verdicts must agree; a disagreement is itself a rejection.
* **hazard containment** is checked per output over the output's
  *support* (transitions on non-support inputs cannot glitch it): the
  collapsed path-labelled structures of both networks are classified
  with the exhaustive event-lattice oracle
  (:func:`repro.hazards.oracle.classify_transition`) — every ordered
  transition pair when the support is small, a deterministic seeded
  sample otherwise.  Any transition where the mapped output has a logic
  hazard the source lacks is a violation.
* **evidence** — every violation ships as a
  :class:`~repro.hazards.witness.HazardWitness` replayed on the
  event-driven simulator (:func:`repro.hazards.witness.replay_witness`),
  so a rejection is a concrete, re-runnable glitch, not an assertion.
  Certified runs replay a bounded number of shared (allowed) hazards the
  same way, one per section-4 record kind where possible.

Trust model (enforced by ``tests/conformance/test_certifier.py``): this
module imports nothing from ``mapping/`` — the code that decides what
the mapper emits never decides whether the emission is accepted.  It is
the package's only checker: ``repro certify`` and ``/v1/certify`` run
it, and every ``verify`` verdict (``repro map --verify``, batch, serve,
``repro perf``) is its verdict at the defaults.

Outputs whose support exceeds ``exhaustive_limit`` are *sampled*, not
proven; the ``conformance.outputs_sampled`` counter and the
``sampled_outputs`` field of the ``certify.verdict`` log event say how
many.

Every run emits a :class:`Certificate` whose ``to_dict`` payload is
stamped ``schema: repro-cert/v1`` and carries per-output SHA-256
evidence digests over the canonical per-transition verdict lines, so
two certifications of the same artifact are byte-comparable.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from ..boolean import truthtable as tt
from ..boolean.bdd import BddManager
from ..boolean.cube import popcount
from ..boolean.paths import LabeledSop, label_expression
from ..hazards.multilevel import MAX_EVENTS
from ..hazards.oracle import (
    TransitionKind,
    TransitionVerdict,
    all_transitions,
    classify_transition,
)
from ..hazards.witness import (
    ALL_KINDS,
    KIND_MIC,
    KIND_SIC,
    KIND_STATIC0,
    KIND_STATIC1,
    HazardWitness,
    replay_witness,
)
from ..network.netlist import Netlist
from ..obs.export import CERT_SCHEMA
from ..obs.tracer import NULL_TRACER

#: Exhaustive-enumeration ceiling: outputs whose support has at most
#: this many variables get every ordered transition pair classified
#: (``4^n`` pairs; at 6 that is 4032 oracle calls per implementation).
#: Larger supports fall back to the deterministic seeded sample.
DEFAULT_EXHAUSTIVE_LIMIT = 6

#: Seeded sample size per large-support output.
DEFAULT_SAMPLES = 150

#: Shared (allowed) hazards replayed on the simulator per output as
#: positive evidence that the oracle's verdicts are physical.
DEFAULT_REPLAY_BUDGET = 4


@dataclass(frozen=True)
class Counterexample:
    """One replayed refutation (or piece of shared-hazard evidence).

    ``witness`` is an input burst over ``support`` (the output's
    variable ordering); ``replay`` summarizes the event-simulator run
    that confirmed the glitch.  ``source_hazard`` distinguishes a
    violation (the source transition was clean — Theorem 3.2 broken)
    from allowed-hazard evidence attached to certified outputs.
    """

    output: str
    support: tuple[str, ...]
    witness: dict
    replay: dict
    source_hazard: bool

    def describe(self) -> str:
        w = HazardWitness.from_dict(self.witness)
        role = "shared hazard" if self.source_hazard else "NEW hazard"
        glitch = "glitches" if self.replay.get("glitched") else "no glitch"
        return (
            f"output {self.output}: {role} {w.kind} on "
            f"{w.transition_string()} — replay {glitch} "
            f"({self.replay.get('changes')} changes, "
            f"expected {self.replay.get('expected')})"
        )

    def to_dict(self) -> dict:
        return {
            "output": self.output,
            "support": list(self.support),
            "witness": dict(self.witness),
            "replay": dict(self.replay),
            "source_hazard": self.source_hazard,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Counterexample":
        return cls(
            output=str(payload["output"]),
            support=tuple(payload["support"]),
            witness=dict(payload["witness"]),
            replay=dict(payload["replay"]),
            source_hazard=bool(payload["source_hazard"]),
        )


@dataclass
class OutputEvidence:
    """Per-output record: what was checked, how, and its digest."""

    output: str
    support: tuple[str, ...]
    method: str  # "exhaustive" | "sampled"
    equivalent_bdd: bool = True
    equivalent_table: Optional[bool] = None
    transitions: int = 0
    mapped_hazards: int = 0
    shared_hazards: int = 0
    new_hazards: int = 0
    kind_counts: dict = field(default_factory=dict)
    replays: int = 0
    digest: str = ""

    def to_dict(self) -> dict:
        return {
            "output": self.output,
            "support": list(self.support),
            "method": self.method,
            "equivalent_bdd": self.equivalent_bdd,
            "equivalent_table": self.equivalent_table,
            "transitions": self.transitions,
            "mapped_hazards": self.mapped_hazards,
            "shared_hazards": self.shared_hazards,
            "new_hazards": self.new_hazards,
            "kind_counts": dict(self.kind_counts),
            "replays": self.replays,
            "digest": self.digest,
        }


@dataclass
class Certificate:
    """The independently-checked verdict on one mapped artifact."""

    design: str
    library: Optional[str]
    verdict: str  # "certified" | "rejected"
    equivalent: bool
    hazard_safe: bool
    interface_ok: bool
    cells_ok: bool
    outputs: list[OutputEvidence] = field(default_factory=list)
    counterexamples: list[Counterexample] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    outputs_checked: int = 0
    transitions_checked: int = 0
    replays: int = 0
    cells_checked: int = 0
    evidence_digest: str = ""
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    elapsed: float = 0.0

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def kind_counts(self) -> dict:
        """Mapped logic hazards per section-4 kind, over all outputs."""
        totals = {kind: 0 for kind in ALL_KINDS}
        for evidence in self.outputs:
            for kind, count in evidence.kind_counts.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    def to_dict(self) -> dict:
        return {
            "schema": CERT_SCHEMA,
            "design": self.design,
            "library": self.library,
            "verdict": self.verdict,
            "equivalent": self.equivalent,
            "hazard_safe": self.hazard_safe,
            "interface_ok": self.interface_ok,
            "cells_ok": self.cells_ok,
            "outputs": [evidence.to_dict() for evidence in self.outputs],
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "violations": list(self.violations),
            "outputs_checked": self.outputs_checked,
            "transitions_checked": self.transitions_checked,
            "replays": self.replays,
            "cells_checked": self.cells_checked,
            "kind_counts": self.kind_counts(),
            "evidence_digest": self.evidence_digest,
            "exhaustive_limit": self.exhaustive_limit,
            "samples": self.samples,
            "seed": self.seed,
            "elapsed": round(self.elapsed, 4),
        }


# ----------------------------------------------------------------------
# Witness construction and replay
# ----------------------------------------------------------------------


def _classify_safe(
    lsop: LabeledSop, start: int, end: int
) -> Optional[TransitionVerdict]:
    """Oracle classification, or ``None`` past the event-lattice limit."""
    try:
        return classify_transition(lsop, start, end)
    except ValueError:
        return None


def _verdict_kind(verdict: TransitionVerdict) -> str:
    if verdict.kind is TransitionKind.STATIC_1:
        return KIND_STATIC1
    if verdict.kind is TransitionKind.STATIC_0:
        return KIND_STATIC0
    if popcount(verdict.start ^ verdict.end) == 1:
        return KIND_SIC
    return KIND_MIC


def _verdict_witness(
    verdict: TransitionVerdict, names: tuple[str, ...], detail: str
) -> HazardWitness:
    return HazardWitness(
        kind=_verdict_kind(verdict),
        start=verdict.start,
        end=verdict.end,
        nvars=len(names),
        names=names,
        detail=detail,
    )


def _replay(lsop: LabeledSop, witness: HazardWitness, output: str) -> dict:
    """Replay a witness on the event simulator; summarize the run."""
    try:
        result = replay_witness(lsop, witness, output=output)
    except ValueError as exc:  # event lattice too large to schedule
        return {"glitched": None, "skipped": str(exc)}
    return {
        "glitched": bool(result.glitched),
        "changes": int(result.changes),
        "expected": int(result.expected),
        "schedule": [f"{name}:{path}" for name, path in result.schedule],
    }


# ----------------------------------------------------------------------
# Transition selection for large supports
# ----------------------------------------------------------------------


def _path_counts(lsop: LabeledSop) -> dict[int, int]:
    """Distinct physical paths per variable index of a labelled SOP."""
    paths: dict[int, set] = {}
    for product in lsop.products:
        for lit in product.literals:
            paths.setdefault(lsop.index[lit.name], set()).add(
                (lit.name, lit.path)
            )
    return {var: len(keys) for var, keys in paths.items()}


def _sampled_transitions(
    nvars: int,
    samples: int,
    rng: random.Random,
    counts: dict[int, int],
):
    """Deterministic transition sample that fits the event lattice.

    Yields ``(start, end)`` pairs: roughly half single-input-change
    (where section 4's s.i.c. records live), the rest multi-input
    bursts whose changing variables are trimmed until the total number
    of changing path literals in *both* implementations stays within
    :data:`~repro.hazards.multilevel.MAX_EVENTS`.
    """
    for index in range(samples):
        start = rng.getrandbits(nvars)
        if index % 2 == 0:
            var = rng.randrange(nvars)
            yield start, start ^ (1 << var)
            continue
        width = rng.randint(2, max(2, nvars // 2))
        burst = rng.sample(range(nvars), min(width, nvars))
        kept: list[int] = []
        events = 0
        for var in burst:
            cost = counts.get(var, 0)
            if kept and events + cost > MAX_EVENTS:
                continue
            kept.append(var)
            events += cost
        end = start
        for var in kept:
            end ^= 1 << var
        if end != start:
            yield start, end


# ----------------------------------------------------------------------
# The certifier
# ----------------------------------------------------------------------


def _check_interface(
    source: Netlist, mapped: Netlist, certificate: Certificate
) -> bool:
    ok = True
    if set(source.inputs) != set(mapped.inputs):
        certificate.violations.append(
            "interface: input sets differ "
            f"(source {sorted(source.inputs)}, mapped {sorted(mapped.inputs)})"
        )
        ok = False
    if set(source.outputs) != set(mapped.outputs):
        certificate.violations.append(
            "interface: output sets differ "
            f"(source {sorted(source.outputs)}, mapped {sorted(mapped.outputs)})"
        )
        ok = False
    certificate.interface_ok = ok
    return ok


def _check_cells(mapped: Netlist, library, certificate: Certificate) -> None:
    """Check every cell-bound gate realizes its library cell's function.

    Gates without a cell binding (BLIF round-trips drop bindings, and
    the source network has none) are skipped: the certifier checks the
    *claimed* bindings, equivalence and hazards cover the rest.
    """
    for node in mapped.gates():
        if node.cell is None:
            continue
        certificate.cells_checked += 1
        try:
            cell = library.cell(node.cell.name)
        except KeyError:
            certificate.cells_ok = False
            certificate.violations.append(
                f"cell: gate {node.name} claims unknown cell "
                f"{node.cell.name!r}"
            )
            continue
        if len(node.fanins) != cell.num_pins:
            certificate.cells_ok = False
            certificate.violations.append(
                f"cell: gate {node.name} binds {len(node.fanins)} nets to "
                f"{cell.num_pins}-pin cell {cell.name}"
            )
            continue
        fanins = list(node.fanins)
        func = node.func

        def gate_table(point: int) -> bool:
            env = {name: bool(point >> i & 1) for i, name in enumerate(fanins)}
            return func.evaluate(env)

        if tt.from_callable(gate_table, len(fanins)) != cell.truth_table():
            certificate.cells_ok = False
            certificate.violations.append(
                f"cell: gate {node.name} does not realize cell {cell.name}"
            )


def certify_mapping(
    source: Netlist,
    mapped: Netlist,
    library=None,
    *,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    replay_budget: int = DEFAULT_REPLAY_BUDGET,
    metrics=None,
    tracer=None,
) -> Certificate:
    """Independently certify a mapped netlist against its source.

    Returns a :class:`Certificate`; ``certificate.certified`` is True
    iff every check passed.  ``library`` (a
    :class:`~repro.library.library.Library` or ``None``) enables the
    cell-binding check; equivalence and hazard containment never need
    it.  Determinism: the same inputs and ``seed`` produce the same
    certificate, including the evidence digests.
    """
    tracer = tracer or NULL_TRACER
    started = time.perf_counter()
    certificate = Certificate(
        design=source.name,
        library=library.name if library is not None else None,
        verdict="certified",
        equivalent=True,
        hazard_safe=True,
        interface_ok=True,
        cells_ok=True,
        exhaustive_limit=exhaustive_limit,
        samples=samples,
        seed=seed,
    )
    overall = hashlib.sha256()
    with tracer.span(
        "certify", design=source.name, library=certificate.library
    ):
        if _check_interface(source, mapped, certificate):
            if library is not None:
                _check_cells(mapped, library, certificate)
            for output in source.outputs:
                with tracer.span("certify.output", output=output):
                    evidence = _certify_output(
                        source,
                        mapped,
                        output,
                        certificate,
                        exhaustive_limit=exhaustive_limit,
                        samples=samples,
                        seed=seed,
                        replay_budget=replay_budget,
                    )
                certificate.outputs.append(evidence)
                certificate.outputs_checked += 1
                certificate.transitions_checked += evidence.transitions
                certificate.replays += evidence.replays
                overall.update(
                    f"{evidence.output} {evidence.digest}\n".encode()
                )
    if certificate.violations:
        certificate.verdict = "rejected"
    certificate.evidence_digest = overall.hexdigest()
    certificate.elapsed = time.perf_counter() - started
    sampled = sum(1 for e in certificate.outputs if e.method == "sampled")
    from ..obs import log as obs_log

    if obs_log.enabled():
        obs_log.event(
            "repro.conformance",
            "certify.verdict",
            level="info" if certificate.certified else "warning",
            trace_id=getattr(tracer, "trace_id", None),
            design=certificate.design,
            library=certificate.library,
            verdict=certificate.verdict,
            violations=len(certificate.violations),
            outputs_checked=certificate.outputs_checked,
            sampled_outputs=sampled,
            transitions_checked=certificate.transitions_checked,
            elapsed_seconds=round(certificate.elapsed, 4),
        )
    if metrics is not None:
        metrics.counter("conformance.certificates").inc()
        if not certificate.certified:
            metrics.counter("conformance.rejections").inc()
        metrics.counter("conformance.outputs_checked").inc(
            certificate.outputs_checked
        )
        metrics.counter("conformance.outputs_sampled").inc(sampled)
        metrics.counter("conformance.transitions_checked").inc(
            certificate.transitions_checked
        )
        metrics.counter("conformance.replays").inc(certificate.replays)
        metrics.histogram("conformance.certify_seconds").observe(
            certificate.elapsed
        )
    return certificate


def _certify_output(
    source: Netlist,
    mapped: Netlist,
    output: str,
    certificate: Certificate,
    *,
    exhaustive_limit: int,
    samples: int,
    seed: int,
    replay_budget: int,
) -> OutputEvidence:
    src_expr = source.collapse(output)
    map_expr = mapped.collapse(output)
    support = tuple(sorted(src_expr.support() | map_expr.support()))
    nvars = len(support)
    digest = hashlib.sha256()
    method = "exhaustive" if nvars <= exhaustive_limit else "sampled"
    evidence = OutputEvidence(output=output, support=support, method=method)
    evidence.kind_counts = {kind: 0 for kind in ALL_KINDS}

    # -- equivalence, twice -----------------------------------------
    if nvars == 0:
        equal_bdd = src_expr.evaluate({}) == map_expr.evaluate({})
        equal_table: Optional[bool] = equal_bdd
    else:
        manager = BddManager(nvars)
        equal_bdd = manager.from_expr(src_expr, support) == manager.from_expr(
            map_expr, support
        )
        equal_table = None
        if nvars <= tt.TT_MAX_VARS:
            src_table = tt.from_callable(
                lambda p: src_expr.evaluate(
                    {name: bool(p >> i & 1) for i, name in enumerate(support)}
                ),
                nvars,
            )
            map_table = tt.from_callable(
                lambda p: map_expr.evaluate(
                    {name: bool(p >> i & 1) for i, name in enumerate(support)}
                ),
                nvars,
            )
            equal_table = src_table == map_table
    evidence.equivalent_bdd = bool(equal_bdd)
    evidence.equivalent_table = equal_table
    digest.update(f"equiv bdd={int(equal_bdd)} tt={equal_table}\n".encode())
    if equal_table is not None and equal_table != equal_bdd:
        certificate.violations.append(
            f"output {output}: BDD and truth-table equivalence verdicts "
            "disagree (checker fault)"
        )
    if not equal_bdd or equal_table is False:
        certificate.equivalent = False
        point = _distinguishing_point(src_expr, map_expr, support)
        rendered = " ".join(
            f"{name}={point >> i & 1}" for i, name in enumerate(support)
        )
        certificate.violations.append(
            f"output {output}: functional mismatch at {rendered or 'const'}"
        )
        return evidence

    # -- hazard containment -----------------------------------------
    src_ls = label_expression(src_expr, support)
    map_ls = label_expression(map_expr, support)
    if method == "exhaustive":
        pairs = all_transitions(nvars)
    else:
        rng = random.Random(f"repro-cert:{seed}:{output}")
        counts = _path_counts(src_ls)
        for var, count in _path_counts(map_ls).items():
            counts[var] = counts.get(var, 0) + count
        pairs = _sampled_transitions(nvars, samples, rng, counts)

    shared: list[TransitionVerdict] = []
    for start, end in pairs:
        mapped_verdict = _classify_safe(map_ls, start, end)
        evidence.transitions += 1
        if mapped_verdict is None:
            # Changing path literals exceed the event lattice: record
            # the skip in the evidence stream instead of guessing.
            digest.update(
                f"{start:0{nvars}b}->{end:0{nvars}b} skipped\n".encode()
            )
            continue
        line = (
            f"{start:0{nvars}b}->{end:0{nvars}b} "
            f"{mapped_verdict.kind.value} "
            f"fh={int(mapped_verdict.function_hazard)} "
            f"lh={int(mapped_verdict.logic_hazard)}"
        )
        if mapped_verdict.logic_hazard:
            evidence.mapped_hazards += 1
            evidence.kind_counts[_verdict_kind(mapped_verdict)] += 1
            source_verdict = _classify_safe(src_ls, start, end)
            if source_verdict is None:
                # The source side is too wide for the lattice: the
                # violation cannot be proven, so the transition counts
                # as shared rather than as a rejection.
                line += " src=?"
                digest.update(line.encode())
                digest.update(b"\n")
                evidence.shared_hazards += 1
                continue
            line += f" src={int(source_verdict.logic_hazard)}"
            if source_verdict.logic_hazard:
                evidence.shared_hazards += 1
                shared.append(mapped_verdict)
            else:
                evidence.new_hazards += 1
                _record_new_hazard(
                    certificate, evidence, map_ls, mapped_verdict, output
                )
        digest.update(line.encode())
        digest.update(b"\n")

    # -- positive replay evidence for certified outputs -------------
    if evidence.new_hazards == 0:
        replayed_kinds: set[str] = set()
        for verdict in shared:
            if evidence.replays >= replay_budget:
                break
            kind = _verdict_kind(verdict)
            if kind in replayed_kinds:
                continue
            witness = _verdict_witness(verdict, support, "shared hazard")
            replay = _replay(map_ls, witness, output)
            if replay.get("glitched") is None:
                continue
            replayed_kinds.add(kind)
            evidence.replays += 1
            digest.update(
                f"replay {witness.kind} {witness.start}->{witness.end} "
                f"glitched={int(bool(replay['glitched']))}\n".encode()
            )
            if not replay["glitched"]:
                certificate.violations.append(
                    f"output {output}: oracle claims a {witness.kind} hazard "
                    f"on {witness.transition_string()} but the replay does "
                    "not glitch (checker fault)"
                )
            certificate.counterexamples.append(
                Counterexample(
                    output=output,
                    support=support,
                    witness=witness.to_dict(),
                    replay=replay,
                    source_hazard=True,
                )
            )
    evidence.digest = digest.hexdigest()
    return evidence


def _record_new_hazard(
    certificate: Certificate,
    evidence: OutputEvidence,
    map_ls: LabeledSop,
    verdict: TransitionVerdict,
    output: str,
) -> None:
    """A Theorem 3.2 violation: witness it, replay it, reject."""
    certificate.hazard_safe = False
    witness = _verdict_witness(
        verdict, evidence.support, "hazard absent from source"
    )
    replay = _replay(map_ls, witness, output)
    evidence.replays += 1 if replay.get("glitched") is not None else 0
    certificate.counterexamples.append(
        Counterexample(
            output=output,
            support=evidence.support,
            witness=witness.to_dict(),
            replay=replay,
            source_hazard=False,
        )
    )
    certificate.violations.append(
        f"output {output}: new {witness.kind} hazard on "
        f"{witness.transition_string()} (not in source)"
    )


def _distinguishing_point(src_expr, map_expr, support: tuple[str, ...]) -> int:
    """A minterm on which the two collapsed outputs disagree."""
    for point in range(1 << min(len(support), tt.TT_MAX_VARS)):
        env = {name: bool(point >> i & 1) for i, name in enumerate(support)}
        if src_expr.evaluate(env) != map_expr.evaluate(env):
            return point
    rng = random.Random(0)
    for _ in range(10000):  # pragma: no cover - >14-var mismatch search
        point = rng.getrandbits(len(support))
        env = {name: bool(point >> i & 1) for i, name in enumerate(support)}
        if src_expr.evaluate(env) != map_expr.evaluate(env):
            return point
    return 0  # pragma: no cover - BDDs disagreed, no point found


__all__ = [
    "CERT_SCHEMA",
    "Certificate",
    "Counterexample",
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "DEFAULT_REPLAY_BUDGET",
    "DEFAULT_SAMPLES",
    "OutputEvidence",
    "certify_mapping",
]
