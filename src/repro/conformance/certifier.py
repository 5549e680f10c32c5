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
  with the exhaustive event-lattice oracle — every ordered transition
  pair when the support is small
  (:func:`repro.hazards.oracle.classify_all`, which decides each
  transition cube once), a deterministic seeded sample otherwise
  (:func:`repro.hazards.oracle.classify_transition`).  Any transition
  where the mapped output has a logic hazard the source lacks is a
  violation.
* **evidence** — every new hazard is replayed as a
  :class:`~repro.hazards.witness.HazardWitness` on the event-driven
  simulator (:func:`repro.hazards.witness.replay_witness`), and a replay
  that does not glitch contradicts the oracle: a ``checker fault``
  violation.  A rejected output carries the first new hazard of each
  kind as its counterexample, a concrete, re-runnable glitch, and one
  violation line per kind with the count.  Certified runs replay a
  bounded number of shared (allowed) hazards the same way, one per
  section-4 record kind where possible.

Trust model (enforced by ``tests/conformance/test_certifier.py``): this
module imports nothing from ``mapping/`` — the code that decides what
the mapper emits never decides whether the emission is accepted.  It is
the package's only checker: ``repro certify`` and ``/v1/certify`` run
it, and every ``verify`` verdict (``repro map --verify``, ``repro batch
--verify`` and its bench snapshot, serve) is its verdict at the
defaults.

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
    classify_all,
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
        counterexamples = [c.to_dict() for c in self.counterexamples]
        # A rejected output can carry thousands of counterexamples: they
        # and their witnesses share one support list per output.
        supports: dict[tuple[str, ...], list[str]] = {}
        for example, entry in zip(self.counterexamples, counterexamples):
            shared = supports.setdefault(example.support, entry["support"])
            entry["support"] = shared
            if entry["witness"].get("names") == shared:
                entry["witness"]["names"] = shared
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
            "counterexamples": counterexamples,
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


def _replay(
    certificate: Certificate,
    evidence: OutputEvidence,
    lsop: LabeledSop,
    witness: HazardWitness,
    labels: dict[tuple[str, int], str],
) -> dict:
    """Replay a witness on the event simulator; check and summarize it.

    A replay that does not glitch contradicts the oracle's verdict and
    is a ``checker fault`` violation.  ``labels`` memoizes the
    ``name:path`` schedule labels, so the replays of one output share
    one string per path.
    """
    output = evidence.output
    try:
        result = replay_witness(lsop, witness, output=output)
    except ValueError as exc:  # event lattice too large to schedule
        return {"glitched": None, "skipped": str(exc)}
    evidence.replays += 1
    if not result.glitched:
        certificate.violations.append(
            f"output {output}: oracle claims a {witness.kind} hazard "
            f"on {witness.transition_string()} but the replay does "
            "not glitch (checker fault)"
        )
    schedule = []
    for key in result.schedule:
        label = labels.get(key)
        if label is None:
            label = labels[key] = f"{key[0]}:{key[1]}"
        schedule.append(label)
    return {
        "glitched": bool(result.glitched),
        "changes": int(result.changes),
        "expected": int(result.expected),
        "schedule": schedule,
    }


class _Points(dict):
    """``point -> its nvars-bit string``, formatted on first use."""

    def __init__(self, nvars: int) -> None:
        super().__init__()
        self.nvars = nvars

    def __missing__(self, point: int) -> str:
        text = self[point] = f"{point:0{self.nvars}b}"
        return text


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

    # Each side is labelled once: its flattened cover tabulates the
    # function and its paths decide the hazards.
    src_ls = label_expression(src_expr, support)
    map_ls = label_expression(map_expr, support)

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
            # Tabulated from the flattened covers, not the expressions
            # the BDDs read: the tables also check that flattening kept
            # each side's function.
            src_table = tt.from_callable(src_ls.plain_cover().evaluate, nvars)
            map_table = tt.from_callable(map_ls.plain_cover().evaluate, nvars)
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
    if method == "exhaustive":
        checked = zip(all_transitions(nvars), classify_all(map_ls))
    else:
        rng = random.Random(f"repro-cert:{seed}:{output}")
        counts = _path_counts(src_ls)
        for var, count in _path_counts(map_ls).items():
            counts[var] = counts.get(var, 0) + count
        checked = (
            ((start, end), _classify_safe(map_ls, start, end))
            for start, end in _sampled_transitions(nvars, samples, rng, counts)
        )

    points = _Points(nvars)
    shared: list[TransitionVerdict] = []
    # Source verdicts by unordered pair: a verdict is the same in both
    # directions, so a transition reuses its reverse's.
    source_logic: dict[tuple[int, int], Optional[bool]] = {}
    new: dict[str, list] = {}
    labels: dict[tuple[str, int], str] = {}
    for (start, end), mapped_verdict in checked:
        evidence.transitions += 1
        line = f"{points[start]}->{points[end]}"
        if mapped_verdict is None:
            # Changing path literals exceed the event lattice: record
            # the skip in the evidence stream instead of guessing.
            digest.update(f"{line} skipped\n".encode())
            continue
        line += (
            f" {mapped_verdict.kind.value}"
            f" fh={int(mapped_verdict.function_hazard)}"
            f" lh={int(mapped_verdict.logic_hazard)}"
        )
        if mapped_verdict.logic_hazard:
            evidence.mapped_hazards += 1
            evidence.kind_counts[_verdict_kind(mapped_verdict)] += 1
            pair = (start, end) if start < end else (end, start)
            if pair in source_logic:
                source_hazard = source_logic[pair]
            else:
                source_verdict = _classify_safe(src_ls, start, end)
                source_hazard = source_logic[pair] = (
                    None if source_verdict is None else source_verdict.logic_hazard
                )
            if source_hazard is None:
                # The source side is too wide for the lattice: the
                # violation cannot be proven, so the transition counts
                # as shared rather than as a rejection.
                line += " src=?"
                evidence.shared_hazards += 1
            elif source_hazard:
                line += " src=1"
                evidence.shared_hazards += 1
                shared.append(mapped_verdict)
            else:
                line += " src=0"
                _record_new_hazard(
                    certificate, evidence, map_ls, mapped_verdict, new, labels
                )
        digest.update(f"{line}\n".encode())
    for kind, (count, witness) in new.items():
        where = witness.transition_string()
        certificate.violations.append(
            f"output {output}: new {kind} hazard on {where} (not in source)"
            if count == 1
            else f"output {output}: {count} new {kind} hazards, first on "
            f"{where} (not in source)"
        )

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
            replay = _replay(certificate, evidence, map_ls, witness, labels)
            if replay["glitched"] is None:
                continue
            replayed_kinds.add(kind)
            digest.update(
                f"replay {witness.kind} {witness.start}->{witness.end} "
                f"glitched={int(replay['glitched'])}\n".encode()
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
    new: dict[str, list],
    labels: dict[tuple[str, int], str],
) -> None:
    """A Theorem 3.2 violation: witness it, replay it, reject.

    Every new hazard is replayed and checked; the first of each kind is
    the output's counterexample, and ``new`` counts them per kind
    (``kind -> [count, first witness]``) for the violation lines.
    """
    certificate.hazard_safe = False
    evidence.new_hazards += 1
    witness = _verdict_witness(
        verdict, evidence.support, "hazard absent from source"
    )
    replay = _replay(certificate, evidence, map_ls, witness, labels)
    first = new.get(witness.kind)
    if first is not None:
        first[0] += 1
        return
    new[witness.kind] = [1, witness]
    certificate.counterexamples.append(
        Counterexample(
            output=evidence.output,
            support=evidence.support,
            witness=witness.to_dict(),
            replay=replay,
            source_hazard=False,
        )
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
