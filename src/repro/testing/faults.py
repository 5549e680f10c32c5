"""Seeded, deterministic fault injection at named pipeline sites.

The batch engine promises retry-with-backoff, deadline fallback, and
crash isolation; this module is how the test harness *proves* those
behaviours instead of asserting them.  A :class:`FaultPlan` names the
sites at which faults fire, what kind of fault each is, and on which
job/attempt it triggers — everything is keyed on the (job id, attempt
number) pair the engine passes to its workers, so a plan replays
identically on the ``serial`` and ``processes`` backends and across
engine restarts.

Sites instrumented in the mapper (one ``fire()`` call each, a no-op
``is None`` check when no plan is installed):

* ``annotate.library`` — before library hazard annotation;
* ``cover.cone``       — before each cone's covering DP;
* ``netlist.build``    — before assembling the mapped netlist (for
  ``corrupt`` faults the batch worker additionally mutates the BLIF
  text *after* its digest was computed, modelling a torn result).

Fault kinds:

* ``raise``   — raise :class:`FaultInjected` (a *transient* error the
  engine retries with exponential backoff);
* ``hang``    — block for ``hang_seconds``; under a cooperative
  :class:`~repro.deadline.Deadline` the hang is cut short by
  :class:`~repro.deadline.DeadlineExceeded`, which is how deadline
  tests stay fast;
* ``corrupt`` — no-op at ``fire()``; :func:`corrupt` mutates a result
  payload so the engine's digest verification catches it;
* ``crash``   — ``os._exit`` the worker process (only meaningful on the
  process backend: the pool breaks and the engine must isolate the
  poison job without losing the others).

Plans are plain picklable dataclasses: the engine ships the plan to
process-pool workers inside each job payload, and the worker installs
it (scoped to that job and attempt) before mapping.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Optional

from ..deadline import Deadline, checked_sleep

KINDS = ("raise", "hang", "corrupt", "crash")


class FaultInjected(RuntimeError):
    """The transient failure raised by ``raise``-kind faults.

    ``args`` holds exactly the constructor arguments so the exception
    survives the pickle round-trip out of a process-pool worker (a
    mismatched ``args``/``__init__`` pair would fail to unpickle and
    break the whole pool).
    """

    def __init__(self, site: str, message: str = "injected fault") -> None:
        super().__init__(site, message)
        self.site = site

    def __str__(self) -> str:
        return f"{self.args[1]} (site {self.args[0]!r})"


@dataclass(frozen=True)
class FaultSpec:
    """One fault: fire ``kind`` at ``site`` for matching (job, attempt).

    ``job`` is a substring match against the active job id (``None``
    matches every job).  The fault triggers on attempts ``after + 1``
    through ``after + times`` — so the default ``times=1`` models a
    transient fault that a single retry clears, while a large ``times``
    models a persistent failure that exhausts the retry budget.  Within
    one attempt a spec fires at most once even if the site is visited
    repeatedly (e.g. ``cover.cone`` fires per cone).
    """

    site: str
    kind: str = "raise"
    job: Optional[str] = None
    times: int = 1
    after: int = 0
    hang_seconds: float = 30.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if self.times < 1 or self.after < 0:
            raise ValueError("times must be >= 1 and after >= 0")

    def matches(self, site: str, job: str, attempt: int) -> bool:
        if site != self.site:
            return False
        if self.job is not None and self.job not in job:
            return False
        return self.after < attempt <= self.after + self.times


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of faults (picklable, shippable to workers)."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any iterable of specs but store a hashable tuple.
        object.__setattr__(self, "faults", tuple(self.faults))

    def for_site(self, site: str) -> tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if f.site == site)

    @staticmethod
    def parse(specs: list[str], **defaults) -> "FaultPlan":
        """Build a plan from ``KIND@SITE[#JOB][*TIMES]`` strings.

        The CLI's ``--inject`` option uses this compact form, e.g.
        ``raise@cover.cone#chu-ad-opt`` (one transient covering fault on
        any job whose id contains ``chu-ad-opt``).
        """
        faults = []
        for text in specs:
            head, _, times = text.partition("*")
            head, _, job = head.partition("#")
            kind, sep, site = head.partition("@")
            if not sep or not kind or not site:
                raise ValueError(
                    f"bad fault spec {text!r}; expected KIND@SITE[#JOB][*TIMES]"
                )
            faults.append(
                FaultSpec(
                    site=site,
                    kind=kind,
                    job=job or None,
                    times=int(times) if times else 1,
                    **defaults,
                )
            )
        return FaultPlan(faults=tuple(faults))


@dataclass
class _Runtime:
    """Installed plan, scoped to one (job, attempt)."""

    plan: FaultPlan
    job: str = ""
    attempt: int = 1
    fired: set = field(default_factory=set)


# Thread-local, not process-global: ``repro serve`` executes concurrent
# requests on its connection threads, each installing its own
# (job, attempt)-scoped runtime — a shared global would let one
# request's install clobber another's mid-flight.  Batch jobs run one
# per thread (inline or in a pool process), so they see the same
# semantics.
_STATE = threading.local()


def _active() -> Optional[_Runtime]:
    return getattr(_STATE, "runtime", None)


def install_plan(
    plan: Optional[FaultPlan], job: str = "", attempt: int = 1
) -> None:
    """Install ``plan`` for the given job/attempt (``None`` clears)."""
    _STATE.runtime = None if plan is None else _Runtime(plan, job, attempt)


def clear_plan() -> None:
    install_plan(None)


def active_plan() -> Optional[FaultPlan]:
    runtime = _active()
    return runtime.plan if runtime is not None else None


def fire(site: str, deadline: Optional[Deadline] = None) -> None:
    """Trigger any installed fault matching ``site`` for the active job.

    Near-zero cost when no plan is installed (one thread-local read);
    called from the mapper's instrumented sites.
    """
    runtime = _active()
    if runtime is None:
        return
    for index, spec in enumerate(runtime.plan.faults):
        if index in runtime.fired or spec.kind == "corrupt":
            continue
        if not spec.matches(site, runtime.job, runtime.attempt):
            continue
        runtime.fired.add(index)
        if spec.kind == "raise":
            raise FaultInjected(site, spec.message)
        if spec.kind == "hang":
            checked_sleep(spec.hang_seconds, deadline, site)
        elif spec.kind == "crash":  # pragma: no cover - kills the process
            os._exit(17)


@dataclass(frozen=True)
class HazardSeed:
    """Outcome of :func:`seed_hazard`: the hazardized netlist + target.

    ``start``/``end`` are minterms over ``support`` (bit ``i`` is
    ``support[i]``) of the static-1 transition the transform provably
    introduced at ``output``; conformance tests hand them straight to
    the certifier's witness replay.
    """

    netlist: object
    output: str
    var: str
    support: tuple[str, ...]
    start: int
    end: int
    kind: str = "static-1"

    def describe(self) -> str:
        return (
            f"seeded {self.kind} hazard at output {self.output} on "
            f"{self.var} toggle (minterms {self.start:#x}->{self.end:#x} "
            f"over {', '.join(self.support)})"
        )


def seed_hazard(netlist, reference=None, seed: int = 0):
    """Deterministically introduce a static-1 logic hazard in a copy.

    Rewrites one output cone as its Shannon expansion
    ``v*f(v=1) + v'*f(v=0)`` in two-level form: every product then
    carries a ``v`` literal, so a ``v`` toggle at a point where both
    cofactors hold momentarily uncovers the output — the classical
    static-1 logic hazard — while the function is untouched.  The
    target transition is chosen so it is function- and logic-hazard
    free in ``reference`` (the source network the artifact will be
    certified against; defaults to ``netlist`` itself), making the
    seeded hazard a guaranteed Theorem 3.2 violation.

    ``seed`` rotates the candidate search order, so different seeds
    hazardize different outputs/variables when several qualify.
    Returns a :class:`HazardSeed`, or ``None`` when no output admits a
    seedable hazard (e.g. purely AND-like cones with disjoint
    cofactors).  The input netlist is never mutated.
    """
    from ..boolean.cube import bit_indices
    from ..boolean.expr import And, Lit, Or
    from ..boolean.paths import label_expression
    from ..hazards.oracle import classify_transition

    outputs = list(netlist.outputs)
    if not outputs:
        return None
    rotation = seed % len(outputs)
    for output in outputs[rotation:] + outputs[:rotation]:
        expr = netlist.collapse(output)
        ref_expr = (
            reference.collapse(output) if reference is not None else expr
        )
        support = sorted(expr.support() | ref_expr.support())
        nvars = len(support)
        if not 2 <= nvars <= 10:
            continue
        ref_ls = label_expression(ref_expr, support)
        own_support = expr.support()
        cover = expr.to_cover(support)
        # The seeded v-toggle changes one path literal per Shannon
        # product; keep that within the event-lattice limit so the
        # certifier can classify (and replay) the planted transition.
        if 2 * len(cover.cubes) > 18:
            continue
        for iv, var in enumerate(support):
            if var not in own_support:
                continue
            bit = 1 << iv
            for point in range(1 << nvars):
                if point & bit:
                    continue
                env0 = {
                    name: bool(point >> i & 1)
                    for i, name in enumerate(support)
                }
                env1 = dict(env0, **{var: True})
                if not (expr.evaluate(env0) and expr.evaluate(env1)):
                    continue
                verdict = classify_transition(ref_ls, point | bit, point)
                if verdict.function_hazard or verdict.logic_hazard:
                    continue
                hazardized = _shannon_rewrite(
                    netlist, output, expr, support, iv, bit_indices,
                    And, Lit, Or,
                )
                return HazardSeed(
                    netlist=hazardized,
                    output=output,
                    var=var,
                    support=tuple(support),
                    start=point | bit,
                    end=point,
                )
    return None


def _shannon_rewrite(
    netlist, output, expr, support, iv, bit_indices, And, Lit, Or
):
    """Replace ``output``'s cone by the two-level Shannon expansion."""
    var = support[iv]
    cover = expr.to_cover(support)
    products = []
    for positive in (True, False):
        for cube in cover:
            if cube.used >> iv & 1 and bool(cube.phase >> iv & 1) != positive:
                continue
            literals = [Lit(var, positive)]
            for j in bit_indices(cube.used):
                if j == iv:
                    continue
                literals.append(Lit(support[j], bool(cube.phase >> j & 1)))
            products.append(
                literals[0] if len(literals) == 1 else And(tuple(literals))
            )
    func = products[0] if len(products) == 1 else Or(tuple(products))
    fanins = sorted(func.support())
    hazardized = netlist.copy(f"{netlist.name}.hazarded")
    gate = hazardized.fresh_name(f"{output}__hazarded")
    hazardized.add_gate(gate, func, fanins)
    hazardized.nodes[output].fanins = [gate]
    return hazardized


def corrupt(site: str, text: str) -> str:
    """Apply any matching ``corrupt`` fault to a result payload.

    Returns ``text`` unchanged when no corrupt fault matches; otherwise
    a deterministically mangled copy whose digest no longer matches the
    one computed from the clean payload.
    """
    runtime = _active()
    if runtime is None:
        return text
    for index, spec in enumerate(runtime.plan.faults):
        if spec.kind != "corrupt" or index in runtime.fired:
            continue
        if not spec.matches(site, runtime.job, runtime.attempt):
            continue
        runtime.fired.add(index)
        return text + f"\n# torn-by-fault seed={runtime.plan.seed}\n"
    return text
