"""The ``repro-api/v1`` contract: frozen, versioned request/response types.

Every way of asking the mapper for work — the Python facade
(:mod:`repro.api.facade`), the CLI's ``map``/``batch``/``explain``/
``certify`` subcommands, the batch engine's worker processes, and the
HTTP service (:mod:`repro.service`) — speaks the same four immutable
dataclasses defined here.  Each type round-trips losslessly through a
plain-JSON payload stamped ``schema: repro-api/v1``:

* :class:`MapRequest` / :class:`MapResponse` — one (design, library)
  mapping job and its result, with the ``repro-explain/v1`` decision
  log attached when ``explain`` is set;
* :class:`CertifyRequest` / :class:`CertifyResponse` — independent
  certification (equivalence + Theorem 3.2 hazard containment) of a
  mapped BLIF against its source.  The same certifier fills the
  ``verify`` verdict of a map when ``verify`` is set.

``from_payload`` is strict: a wrong or missing ``schema`` stamp, an
unknown field, or a mistyped value raises :class:`ApiError` instead of
being silently dropped — tampered payloads fail loudly at the boundary,
the same machine-checkable-interface discipline Verbeek & Schmaltz
argue asynchronous building blocks need to compose.

The mapping *option* fields (depth, objective, filter mode, …) are
declared exactly once, in :data:`OPTION_FIELDS`.  Everything else —
:class:`~repro.mapping.mapper.MappingOptions` construction,
:class:`~repro.batch.jobs.BatchJob` specs, and the CLI's argparse flags
— derives from that table, so adding an option is a one-line change
(see :func:`add_option_arguments` / :func:`option_values_from_args`).

Deprecation policy: ``repro-api/v1`` payloads only ever *gain* optional
fields with defaults; removing or retyping a field bumps the schema to
``/v2`` and v1 payloads keep parsing for at least one minor release.
Four removals inside v1 break that rule: the ``verify`` request kind
(a caller sends the same fields as kind ``certify`` to
``/v1/certify``), the ``workers`` field of map requests and
responses (covering is serial), and the ``explain`` and ``batch``
request kinds (a ``map`` request with ``explain`` set, or one ``map``
request per job).
``tmap``/``async_tmap``/``map_network`` take a
:class:`~repro.mapping.mapper.MappingOptions` and no per-knob keywords
(see ``docs/api.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional

#: The version stamp every payload carries.
API_SCHEMA = "repro-api/v1"

MODES = ("async", "sync")
OBJECTIVES = ("area", "delay")
FILTER_MODES = ("exact", "paper")

#: Widest output support a certify request may ask to classify
#: exhaustively: ``4^n`` transitions, about a million at 10.
MAX_EXHAUSTIVE_LIMIT = 10
#: Most sampled transitions a certify request may ask for per output.
MAX_SAMPLES = 10_000


class ApiError(ValueError):
    """A payload or request violates the ``repro-api/v1`` contract."""


# ----------------------------------------------------------------------
# The single declaration of the mapping options
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OptionField:
    """One mapping option: name, type, default, choices, and CLI flag.

    ``flag=None`` keeps the option out of the CLI; ``batch=False``
    keeps it out of :class:`~repro.batch.jobs.BatchJob` specs (for
    knobs that cannot change results, like ``result_cache``).
    """

    name: str
    kind: type
    default: Any
    help: str
    flag: Optional[str] = None
    choices: Optional[tuple] = None
    batch: bool = True
    minimum: Optional[int] = None


#: The one place a mapping option is declared.  ``MappingOptions``
#: construction, ``BatchJob`` fields, ``MapRequest`` fields, and the
#: CLI's argparse flags are all derived from this table.
OPTION_FIELDS: tuple[OptionField, ...] = (
    OptionField(
        "mode",
        str,
        "async",
        "mapping flow: the paper's hazard-safe mapper or the sync baseline",
        flag=None,  # the CLI exposes this as --sync, see add_option_arguments
        choices=MODES,
    ),
    OptionField(
        "max_depth",
        int,
        5,
        "cluster-enumeration depth (the paper runs at 5)",
        flag="--depth",
        minimum=1,
    ),
    OptionField(
        "max_inputs",
        int,
        8,
        "cluster input cap during matching",
        flag="--max-inputs",
        minimum=1,
    ),
    OptionField(
        "objective",
        str,
        "area",
        "covering objective",
        flag="--objective",
        choices=OBJECTIVES,
    ),
    OptionField(
        "filter_mode",
        str,
        "exact",
        "hazardous-match filter: exact verdicts or the paper's record lists",
        flag="--filter-mode",
        choices=FILTER_MODES,
    ),
    OptionField(
        "result_cache",
        bool,
        False,
        "reuse whole map results from the content-addressed result cache",
        flag="--result-cache",
        batch=False,  # a deployment knob: BatchConfig carries it, job
        # specs don't (it cannot change results, so it must not change
        # spec digests or resume identity)
    ),
)

OPTION_NAMES = tuple(field.name for field in OPTION_FIELDS)
#: Option fields carried by picklable ``BatchJob`` specs.
BATCH_OPTION_NAMES = tuple(f.name for f in OPTION_FIELDS if f.batch)


def add_option_arguments(parser) -> None:
    """Register the :data:`OPTION_FIELDS` flags on an argparse parser.

    The ``mode`` option is exposed as the historical ``--sync`` toggle;
    every other field becomes a typed, choice-checked flag.
    """
    for field in OPTION_FIELDS:
        if field.name == "mode":
            parser.add_argument(
                "--sync",
                action="store_true",
                help="use the sync baseline (default: the async mapper)",
            )
            continue
        if field.flag is None:
            continue
        if field.kind is bool:
            # Booleans get the paired --flag/--no-flag form for free.
            parser.add_argument(
                field.flag,
                dest=field.name,
                action=argparse.BooleanOptionalAction,
                default=field.default,
                help=field.help,
            )
            continue
        parser.add_argument(
            field.flag,
            dest=field.name,
            type=field.kind,
            default=field.default,
            choices=field.choices,
            help=field.help,
        )


def option_values_from_args(args) -> dict:
    """Extract the :data:`OPTION_FIELDS` values an argparse run produced."""
    values: dict[str, Any] = {}
    for field in OPTION_FIELDS:
        if field.name == "mode":
            values["mode"] = "sync" if getattr(args, "sync", False) else "async"
        elif hasattr(args, field.name):
            values[field.name] = getattr(args, field.name)
    return values


def _check_option(name: str, value: Any) -> None:
    spec = next((f for f in OPTION_FIELDS if f.name == name), None)
    if spec is None:
        return
    if spec.choices is not None and value not in spec.choices:
        raise ApiError(
            f"{name} must be one of {spec.choices}, got {value!r}"
        )
    if spec.minimum is not None and value < spec.minimum:
        raise ApiError(f"{name} must be >= {spec.minimum}, got {value!r}")


# ----------------------------------------------------------------------
# Payload plumbing shared by every request/response type
# ----------------------------------------------------------------------

#: Accepted runtime types per annotated field type.  Payloads are plain
#: JSON, so the only containers are dicts, lists (tuples on the Python
#: side), strings, numbers, bools, and null.
_TYPE_MAP = {
    "str": (str,),
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "dict": (dict,),
    "tuple": (list, tuple),
    "Optional[str]": (str, type(None)),
    "Optional[int]": (int, type(None)),
    "Optional[float]": (int, float, type(None)),
    "Optional[dict]": (dict, type(None)),
    "Optional[tuple]": (list, tuple, type(None)),
}


def _normalize(annotation: str) -> str:
    annotation = annotation.replace("typing.", "")
    for container in ("tuple", "dict"):
        prefix = f"{container}["
        if annotation.startswith(prefix):
            return container
        if annotation.startswith(f"Optional[{prefix}"):
            return f"Optional[{container}]"
    return annotation


class _Payload:
    """Strict ``to_payload``/``from_payload`` over the dataclass fields."""

    #: Discriminator stored in the payload's ``kind`` field.
    kind = "abstract"

    def to_payload(self) -> dict:
        payload: dict[str, Any] = {"schema": API_SCHEMA, "kind": self.kind}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[field.name] = value
        return payload

    @classmethod
    def _field_checks(cls) -> tuple[frozenset, tuple]:
        """The payload keys this class accepts, and per field its
        (name, required, accepted types or ``None``, annotation),
        built on first use and kept on the class."""
        checks = cls.__dict__.get("_checks")
        if checks is None:
            table = tuple(
                (
                    field.name,
                    field.default is dataclasses.MISSING
                    and field.default_factory is dataclasses.MISSING,
                    _TYPE_MAP.get(_normalize(str(field.type))),
                    field.type,
                )
                for field in fields(cls)
            )
            accepted = frozenset(
                [name for name, *_ in table] + ["schema", "kind"]
            )
            checks = cls._checks = (accepted, table)
        return checks

    @classmethod
    def from_payload(cls, payload: Mapping) -> "_Payload":
        if not isinstance(payload, Mapping):
            raise ApiError(
                f"{cls.kind} payload must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != API_SCHEMA:
            raise ApiError(
                f"payload schema {schema!r} is not {API_SCHEMA!r}"
            )
        kind = payload.get("kind")
        if kind != cls.kind:
            raise ApiError(f"payload kind {kind!r} is not {cls.kind!r}")
        accepted, table = cls._field_checks()
        unknown = sorted(set(payload) - accepted)
        if unknown:
            raise ApiError(
                f"unknown {cls.kind} field(s): {', '.join(unknown)}"
            )
        values: dict[str, Any] = {}
        for name, required, expected, annotation in table:
            if name not in payload:
                if required:
                    raise ApiError(f"missing required field {name!r}")
                continue
            value = payload[name]
            if expected is not None:
                if not isinstance(value, expected):
                    raise ApiError(
                        f"field {name!r} must be {annotation}, "
                        f"got {type(value).__name__}"
                    )
                if isinstance(value, bool) and bool not in expected:
                    raise ApiError(
                        f"field {name!r} must be {annotation}, got bool"
                    )
            if isinstance(value, list):
                value = tuple(value)
            values[name] = value
        try:
            return cls(**values)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ApiError):
                raise
            raise ApiError(str(exc)) from exc


def parse_request(payload: Mapping) -> "_Payload":
    """Parse any ``repro-api/v1`` request payload by its ``kind``."""
    kinds = {cls.kind: cls for cls in (MapRequest, CertifyRequest)}
    if not isinstance(payload, Mapping):
        raise ApiError("request payload must be a JSON object")
    cls = kinds.get(payload.get("kind"))
    if cls is None:
        raise ApiError(
            f"unknown request kind {payload.get('kind')!r}; "
            f"one of {sorted(kinds)}"
        )
    return cls.from_payload(payload)


def _validate_network(network: Optional[dict]) -> None:
    if network is None:
        return
    keys = set(network)
    if "blif" in keys:
        if not isinstance(network["blif"], str):
            raise ApiError("network.blif must be BLIF text")
        extra = keys - {"blif", "name"}
    elif "equations" in keys:
        if not isinstance(network["equations"], dict):
            raise ApiError("network.equations must map outputs to expressions")
        extra = keys - {"equations", "inputs", "name"}
    else:
        raise ApiError("network needs a 'blif' or 'equations' entry")
    if extra:
        raise ApiError(f"unknown network entr{'y' if len(extra) == 1 else 'ies'}: "
                       f"{', '.join(sorted(extra))}")


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MapRequest(_Payload):
    """One mapping job: a design, a library, and the option fields.

    Exactly one of ``design`` (a benchmark-catalog name) or ``network``
    (an inline design: ``{"blif": text}`` or ``{"equations": {...},
    "inputs": [...]}``) must be given.  ``deadline_seconds`` bounds the
    run cooperatively; an overrun degrades to the trivial depth-1 cover
    (reported as ``fallback="trivial-cover"`` in the response) instead
    of failing.
    """

    kind = "map"

    library: str
    design: Optional[str] = None
    network: Optional[dict] = None
    mode: str = "async"
    max_depth: int = 5
    max_inputs: int = 8
    objective: str = "area"
    filter_mode: str = "exact"
    result_cache: bool = False
    dont_cares: bool = False
    explain: bool = False
    verify: bool = False
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.library:
            raise ApiError("library is required")
        if (self.design is None) == (self.network is None):
            raise ApiError("exactly one of design or network is required")
        for name in OPTION_NAMES:
            _check_option(name, getattr(self, name))
        _validate_network(self.network)
        if self.dont_cares and self.design is None:
            raise ApiError(
                "dont_cares needs a catalog design (bursts come from its "
                "burst-mode specification)"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ApiError("deadline_seconds must be positive")

    @property
    def design_name(self) -> str:
        if self.design is not None:
            return self.design
        assert self.network is not None
        return str(self.network.get("name") or "inline")


@dataclass(frozen=True)
class CertifyRequest(_Payload):
    """Independently certify a mapped BLIF against its source design.

    ``design`` names a catalog benchmark or ``network`` carries the
    source inline, as on :class:`MapRequest`; the check runs in
    :mod:`repro.conformance`, which shares no code with the mapper's
    match/cover machinery.  ``library`` additionally enables the
    cell-binding check for netlists whose gates carry cell references
    (BLIF round-trips drop them, so it is optional).  Certify requests
    have no deadline, so ``exhaustive_limit`` is bounded by
    :data:`MAX_EXHAUSTIVE_LIMIT` and ``samples`` by :data:`MAX_SAMPLES`.
    """

    kind = "certify"

    mapped_blif: str
    design: Optional[str] = None
    network: Optional[dict] = None
    library: Optional[str] = None
    exhaustive_limit: int = 6
    samples: int = 150
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.mapped_blif:
            raise ApiError("mapped_blif is required")
        if (self.design is None) == (self.network is None):
            raise ApiError("exactly one of design or network is required")
        _validate_network(self.network)
        if self.exhaustive_limit < 1:
            raise ApiError("exhaustive_limit must be >= 1")
        if self.exhaustive_limit > MAX_EXHAUSTIVE_LIMIT:
            raise ApiError(
                f"exhaustive_limit must be <= {MAX_EXHAUSTIVE_LIMIT}"
            )
        if self.samples < 1:
            raise ApiError("samples must be >= 1")
        if self.samples > MAX_SAMPLES:
            raise ApiError(f"samples must be <= {MAX_SAMPLES}")


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MapResponse(_Payload):
    """A mapped network plus its quality/runtime accounting.

    ``digest`` is the SHA-256 of ``blif`` — the byte-identity handle the
    batch journal, the service tests, and resumable runs all compare.
    ``fallback`` is ``"trivial-cover"`` when a deadline overran and the
    run degraded to the depth-1 cover (``deadline_site`` says where the
    budget ran out).  ``verify`` is the certifier's three-verdict dict
    (``equivalent`` / ``hazard_safe`` / ``ok``, where ``ok`` means
    certified) when verification was requested; ``explain`` the
    ``repro-explain/v1`` payload.
    """

    kind = "map_response"

    status: str
    design: str
    library: str
    mode: str
    area: float
    delay: float
    cells: int
    cell_usage: dict
    cones: int
    matches: int
    filter_invocations: int
    map_seconds: float
    annotate_seconds: float
    annotate_source: Optional[str]
    digest: str
    blif: str
    fallback: Optional[str] = None
    deadline_site: Optional[str] = None
    verify: Optional[dict] = None
    explain: Optional[dict] = None
    #: ``repro-trace/v1`` span tree of the serving side, present only
    #: when the caller sent an ``X-Repro-Trace`` header (additive
    #: optional field per the deprecation policy).
    trace: Optional[dict] = None
    #: ``"memory"`` or ``"disk"`` when this response was replayed from
    #: the content-addressed result cache instead of being recomputed
    #: (additive optional field per the deprecation policy).
    cached: Optional[str] = None

    def summary(self) -> dict:
        return {
            "area": self.area,
            "delay": self.delay,
            "cells": self.cells,
            "cpu": self.map_seconds,
        }


@dataclass(frozen=True)
class CertifyResponse(_Payload):
    """The ``repro-cert/v1`` verdict plus its headline fields.

    ``certificate`` is the full certificate document (schema owned by
    :mod:`repro.conformance.certifier`); the flat fields mirror its
    headline entries so clients can gate without digging into it.
    """

    kind = "certify_response"

    verdict: str
    certified: bool
    equivalent: bool
    hazard_safe: bool
    outputs_checked: int
    transitions_checked: int
    replays: int
    evidence_digest: str
    violations: tuple
    counterexamples: tuple
    certificate: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", tuple(self.violations))
        object.__setattr__(
            self, "counterexamples", tuple(self.counterexamples)
        )


__all__ = [
    "API_SCHEMA",
    "ApiError",
    "CertifyRequest",
    "CertifyResponse",
    "FILTER_MODES",
    "MAX_EXHAUSTIVE_LIMIT",
    "MAX_SAMPLES",
    "MODES",
    "MapRequest",
    "MapResponse",
    "OBJECTIVES",
    "OPTION_FIELDS",
    "OPTION_NAMES",
    "BATCH_OPTION_NAMES",
    "OptionField",
    "add_option_arguments",
    "option_values_from_args",
    "parse_request",
]
