"""Decision-level provenance for the covering DP (the explain layer).

PR 3's spans and metrics say *how long* each mapping phase took; this
module records *why the cover came out the way it did*: one
:class:`CandidateRecord` per (cluster, cell) candidate the DP examined,
with its outcome —

* ``accepted``         — passed the §3.2.2 filter (or was hazard-free)
  and is the node's current cost champion;
* ``rejected-hazard``  — a hazardous cell whose hazards are *not* a
  subset of the subnetwork's; the reason names the offending hazard
  class, the §4.1–4.2 record that induces it, and a concrete
  :class:`~repro.hazards.witness.HazardWitness` input burst that
  provably glitches the cell (replayable on
  :mod:`repro.network.eventsim`);
* ``rejected-cost``    — passed every safety check but lost the
  dynamic-programming cost comparison;
* ``waived-dont-care`` — rejected by the plain filter, then accepted
  because every offending hazard lies outside the specified input
  bursts (the section-6 don't-care extension) and won the cost race.

Records accumulate per cone in a :class:`ConeExplain` (exactly like
``CoverStats``) and merge in cone order into an :class:`ExplainLog`,
so the log is deterministic.
The JSON contract is version-stamped ``repro-explain/v1`` (exported via
:mod:`repro.obs.export`); :func:`validate_explain_payload` is the schema
check CI runs on a live ``repro map --explain`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hazards.analyzer import SubsetViolation
    from ..mapping.cuts import Cluster
    from ..mapping.match import Match
    from .metrics import MetricsRegistry

EXPLAIN_SCHEMA = "repro-explain/v1"

ACCEPTED = "accepted"
REJECTED_HAZARD = "rejected-hazard"
REJECTED_COST = "rejected-cost"
WAIVED_DONT_CARE = "waived-dont-care"
OUTCOMES = (ACCEPTED, REJECTED_HAZARD, REJECTED_COST, WAIVED_DONT_CARE)

#: ``summary()`` keys per outcome (dashes → underscores for JSON/metrics).
_OUTCOME_KEYS = {outcome: outcome.replace("-", "_") for outcome in OUTCOMES}


def violation_reason(violation: "SubsetViolation", target_names) -> dict:
    """JSON-ready rejection reason for one subset-filter violation."""
    from ..hazards.witness import HazardWitness

    names = tuple(target_names)
    reason = {
        "kind": violation.kind,
        "detail": violation.detail,
        "target_start": violation.target_start,
        "target_end": violation.target_end,
        "target_transition": HazardWitness(
            kind=violation.kind,
            start=violation.target_start,
            end=violation.target_end,
            nvars=len(names),
            names=names,
        ).transition_string(),
    }
    if violation.witness is not None:
        reason["witness"] = violation.witness.to_dict()
    return reason


@dataclass
class CandidateRecord:
    """One (cluster, cell) candidate examined by the covering DP."""

    node: str
    leaves: tuple[str, ...]
    cell: str
    binding: tuple[int, ...]
    outcome: str = REJECTED_COST
    cost: Optional[float] = None
    hazardous: bool = False
    screened: bool = False
    waived: bool = False
    selected: bool = False
    reason: Optional[dict] = None

    def to_dict(self) -> dict:
        payload = {
            "node": self.node,
            "leaves": list(self.leaves),
            "cell": self.cell,
            "binding": list(self.binding),
            "outcome": self.outcome,
            "cost": self.cost,
            "hazardous": self.hazardous,
            "screened": self.screened,
            "waived": self.waived,
            "selected": self.selected,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        return payload


@dataclass
class ConeExplain:
    """Per-cone recorder (the explain twin of the per-cone
    ``CoverStats`` accumulator)."""

    root: str
    records: list[CandidateRecord] = field(default_factory=list)

    def candidate(self, node: str, cluster: "Cluster", match: "Match") -> CandidateRecord:
        record = CandidateRecord(
            node=node,
            leaves=tuple(cluster.leaves),
            cell=match.cell.name,
            binding=tuple(match.binding),
        )
        self.records.append(record)
        return record

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "candidates": [record.to_dict() for record in self.records],
        }


@dataclass
class ExplainLog:
    """The full decision log of one mapping run."""

    design: str = ""
    library: str = ""
    mode: str = ""
    filter_mode: str = ""
    objective: str = ""
    cones: list[ConeExplain] = field(default_factory=list)

    def add_cone(self, cone: ConeExplain) -> None:
        self.cones.append(cone)

    def iter_records(self) -> Iterator[CandidateRecord]:
        for cone in self.cones:
            yield from cone.records

    def reason_counts(self) -> dict[str, int]:
        """Rejection counts per hazard kind (the §4 class of the reason)."""
        counts: dict[str, int] = {}
        for record in self.iter_records():
            if record.outcome == REJECTED_HAZARD and record.reason is not None:
                kind = record.reason.get("kind", "unknown")
                counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        outcome_counts = {key: 0 for key in _OUTCOME_KEYS.values()}
        screened = selected = candidates = 0
        for record in self.iter_records():
            candidates += 1
            outcome_counts[_OUTCOME_KEYS[record.outcome]] += 1
            if record.screened:
                screened += 1
            if record.selected:
                selected += 1
        return {
            "cones": len(self.cones),
            "candidates": candidates,
            # One screened candidate == one hazards_subset invocation,
            # so this must equal CoverStats.filter_invocations — the
            # "100% of filter invocations are explained" contract.
            "filter_invocations": screened,
            "selected": selected,
            "reason_kinds": self.reason_counts(),
            **outcome_counts,
        }

    def publish_metrics(self, registry: "MetricsRegistry") -> None:
        """Record the decision counts under ``explain.*`` counters."""
        summary = self.summary()
        registry.counter("explain.candidates").inc(summary["candidates"])
        registry.counter("explain.filter_invocations").inc(
            summary["filter_invocations"]
        )
        for outcome, key in _OUTCOME_KEYS.items():
            registry.counter(f"explain.{key}").inc(summary[key])
        for kind, count in summary["reason_kinds"].items():
            registry.counter(
                f"explain.rejected_hazard.{kind.replace('-', '_')}"
            ).inc(count)

    def to_dict(self) -> dict:
        return {
            "schema": EXPLAIN_SCHEMA,
            "design": self.design,
            "library": self.library,
            "mode": self.mode,
            "filter_mode": self.filter_mode,
            "objective": self.objective,
            "summary": self.summary(),
            "cones": [cone.to_dict() for cone in self.cones],
        }


# ----------------------------------------------------------------------
# Rendering (the ``repro explain`` report)
# ----------------------------------------------------------------------

def render_explain(
    payload: dict,
    cone: Optional[str] = None,
    limit: Optional[int] = None,
    rejected_only: bool = False,
) -> list[str]:
    """Human-readable per-cone decision report of an explain payload.

    ``cone`` restricts to one cone root; ``limit`` caps the candidate
    lines per cone; ``rejected_only`` keeps only hazard rejections (the
    question users actually ask: *why did this cell lose?*).
    """
    summary = payload.get("summary", {})
    lines = [
        f"{payload.get('design', '?')} onto {payload.get('library', '?')} "
        f"({payload.get('mode', '?')} mapping, filter={payload.get('filter_mode', '?')}, "
        f"objective={payload.get('objective', '?')})",
        f"decisions: {summary.get('candidates', 0)} candidates over "
        f"{summary.get('cones', 0)} cones — "
        f"{summary.get('accepted', 0)} accepted, "
        f"{summary.get('rejected_hazard', 0)} hazard-rejected, "
        f"{summary.get('rejected_cost', 0)} cost-rejected, "
        f"{summary.get('waived_dont_care', 0)} waived by don't-cares",
    ]
    kinds = summary.get("reason_kinds") or {}
    if kinds:
        parts = ", ".join(f"{kind}: {count}" for kind, count in kinds.items())
        lines.append(f"rejection reasons: {parts}")
    for cone_payload in payload.get("cones", []):
        root = cone_payload.get("root", "?")
        if cone is not None and root != cone:
            continue
        candidates = cone_payload.get("candidates", [])
        shown = [
            c
            for c in candidates
            if not rejected_only or c.get("outcome") == REJECTED_HAZARD
        ]
        lines.append(f"\ncone {root}: {len(candidates)} candidate(s)")
        for record in shown if limit is None else shown[:limit]:
            lines.extend(_render_candidate(record))
        if limit is not None and len(shown) > limit:
            lines.append(f"  … {len(shown) - limit} more")
    return lines


def _render_candidate(record: dict) -> list[str]:
    mark = {
        ACCEPTED: "+",
        WAIVED_DONT_CARE: "~",
        REJECTED_COST: "-",
        REJECTED_HAZARD: "!",
    }.get(record.get("outcome", ""), "?")
    cost = record.get("cost")
    cost_text = f" cost={cost:g}" if cost is not None else ""
    flags = []
    if record.get("selected"):
        flags.append("selected")
    if record.get("screened"):
        flags.append("screened")
    flag_text = f" [{', '.join(flags)}]" if flags else ""
    lines = [
        f"  {mark} {record.get('node')}: {record.get('cell')}"
        f"({', '.join(record.get('leaves', []))}) "
        f"{record.get('outcome')}{cost_text}{flag_text}"
    ]
    reason = record.get("reason")
    if reason:
        lines.append(
            f"      {reason.get('kind')}: {reason.get('detail')} — "
            f"cluster transition {reason.get('target_transition')}"
        )
        witness = reason.get("witness")
        if witness:
            names = witness.get("names", [])
            start, end = witness.get("start", 0), witness.get("end", 0)
            arrows = []
            for i, name in enumerate(names):
                before, after = start >> i & 1, end >> i & 1
                arrows.append(
                    f"{name}{'↑' if after else '↓'}"
                    if before != after
                    else f"{name}={before}"
                )
            lines.append(f"      cell witness: {' '.join(arrows)}")
    return lines


# ----------------------------------------------------------------------
# Schema validation (CI gate on a live --explain artifact)
# ----------------------------------------------------------------------

def validate_explain_payload(payload: dict) -> dict:
    """Validate a ``repro-explain/v1`` payload; returns its summary.

    Raises ``ValueError`` naming the first problem: wrong schema,
    missing keys, unknown outcomes, a hazard rejection without a reason
    or witness, or a summary inconsistent with the recorded candidates
    (which would mean the log does not cover every filter invocation).
    """
    if not isinstance(payload, dict):
        raise ValueError("explain payload must be a JSON object")
    if payload.get("schema") != EXPLAIN_SCHEMA:
        raise ValueError(
            f"schema {payload.get('schema')!r} is not {EXPLAIN_SCHEMA!r}"
        )
    for key in ("design", "library", "mode", "summary", "cones"):
        if key not in payload:
            raise ValueError(f"missing top-level key {key!r}")
    counts = {key: 0 for key in _OUTCOME_KEYS.values()}
    screened = selected = candidates = 0
    kinds: dict[str, int] = {}
    for cone in payload["cones"]:
        if "root" not in cone or "candidates" not in cone:
            raise ValueError("cone entries need 'root' and 'candidates'")
        for record in cone["candidates"]:
            for key in ("node", "cell", "leaves", "binding", "outcome"):
                if key not in record:
                    raise ValueError(
                        f"candidate in cone {cone['root']!r} misses {key!r}"
                    )
            outcome = record["outcome"]
            if outcome not in OUTCOMES:
                raise ValueError(f"unknown outcome {outcome!r}")
            candidates += 1
            counts[_OUTCOME_KEYS[outcome]] += 1
            screened += bool(record.get("screened"))
            selected += bool(record.get("selected"))
            if outcome == REJECTED_HAZARD:
                reason = record.get("reason")
                if not reason:
                    raise ValueError(
                        f"hazard rejection of {record['cell']!r} at "
                        f"{record['node']!r} carries no reason"
                    )
                for key in ("kind", "detail", "target_start", "target_end"):
                    if key not in reason:
                        raise ValueError(f"rejection reason misses {key!r}")
                witness = reason.get("witness")
                if not witness:
                    raise ValueError(
                        f"hazard rejection of {record['cell']!r} at "
                        f"{record['node']!r} carries no witness"
                    )
                for key in ("kind", "start", "end", "nvars", "names"):
                    if key not in witness:
                        raise ValueError(f"witness misses {key!r}")
                kinds[reason["kind"]] = kinds.get(reason["kind"], 0) + 1
    summary = payload["summary"]
    expected = {
        "cones": len(payload["cones"]),
        "candidates": candidates,
        "filter_invocations": screened,
        "selected": selected,
        **counts,
    }
    for key, value in expected.items():
        if summary.get(key) != value:
            raise ValueError(
                f"summary[{key!r}] = {summary.get(key)!r} but the recorded "
                f"candidates say {value!r}"
            )
    if dict(summary.get("reason_kinds", {})) != kinds:
        raise ValueError(
            f"summary reason_kinds {summary.get('reason_kinds')!r} "
            f"disagree with the recorded reasons {kinds!r}"
        )
    return summary


def verify_explain_witnesses(payload: dict, library) -> int:
    """Replay every witness of an explain payload on the event simulator.

    Each hazard-rejection witness is replayed against its cell's
    path-labelled implementation; returns the number replayed.  Raises
    ``ValueError`` if any fails to glitch — the self-check that makes
    the explain layer evidence rather than logging.
    """
    from ..hazards.witness import HazardWitness, replay_witness

    replayed = 0
    for cone in payload.get("cones", []):
        for record in cone.get("candidates", []):
            reason = record.get("reason") or {}
            witness_payload = reason.get("witness")
            if not witness_payload:
                continue
            cell = library.cell(record["cell"])
            if cell.analysis is None:
                cell.annotate()
            witness = HazardWitness.from_dict(witness_payload)
            replay = replay_witness(cell.analysis.lsop, witness)
            if not replay.glitched:
                raise ValueError(
                    f"witness for {record['cell']!r} at {record['node']!r} "
                    f"did not glitch: {replay.describe()}"
                )
            replayed += 1
    return replayed
