"""Hierarchical tracing for the mapping pipeline.

A :class:`Tracer` records a tree of timed *spans* — one per pipeline
phase (decompose, partition, per-cone covering, annotation, …) — so a
mapping run can be inspected after the fact: where the time went and
which phase regressed.  The span tree is the observability counterpart
of the paper's Table-5 CPU column, at phase granularity instead of
whole-run granularity.

Design constraints, in order:

* **Zero cost when off.**  Every instrumented call site takes an
  optional tracer and defaults to :data:`NULL_TRACER`, whose ``span``
  is a shared no-op context manager — disabled tracing adds only an
  attribute lookup and a ``with`` on a do-nothing object per phase
  (never per match or per cube).
* **Thread-safe under concurrent jobs and requests.**  The active-span
  stack is thread-local, so spans opened by batch-engine or daemon
  worker threads nest correctly within work done on that thread;
  parenting a span under one opened elsewhere (a ``batch_job`` under
  the batch run's span) is explicit via ``parent=``.  All tree mutations take
  the tracer lock — span creation happens per phase/cone, far off the
  hot path.
* **No process-global state.**  Tracers are plain objects passed down
  the call chain (``MappingOptions.tracer``), so two concurrent
  ``map_network`` calls with distinct tracers can never contaminate
  each other's trees (tested in ``tests/obs/test_tracer.py``).

``validate()`` checks well-formedness (every span closed, children
timed within their parents).
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from typing import Iterator, Optional

#: Tolerance for parent/child interval containment checks.  Spans are
#: stamped with ``time.perf_counter`` from different threads; a small
#: slack absorbs clock-read ordering at span boundaries.
_TIME_EPSILON = 1e-6

#: HTTP header carrying a :class:`SpanContext` from client to daemon.
TRACE_HEADER = "X-Repro-Trace"


def _new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


class SpanContext:
    """The wire form of "this work belongs under that span".

    A context is what crosses a process or HTTP boundary: the run's
    ``trace_id`` plus the span id of the remote parent.  It serializes
    to ``{trace_id}:{span_id}`` for the :data:`TRACE_HEADER` header and
    pickles untouched for process-pool submissions.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: int = 0) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def header_value(self) -> str:
        return f"{self.trace_id}:{self.span_id}"

    @classmethod
    def parse(cls, value: Optional[str]) -> Optional["SpanContext"]:
        """Parse a header value; ``None``/blank means "not traced".

        Malformed values raise ``ValueError`` — a mangled trace header
        is a caller bug worth rejecting loudly, not guessing around.
        """
        if not value:
            return None
        trace_id, sep, span = value.partition(":")
        if not sep or not trace_id or not span.isdigit():
            raise ValueError(
                f"malformed {TRACE_HEADER} value {value!r}; "
                "expected '<trace_id>:<span_id>'"
            )
        return cls(trace_id, int(span))

    # Pickling a __slots__ class needs explicit state plumbing.
    def __getstate__(self) -> tuple:
        return (self.trace_id, self.span_id)

    def __setstate__(self, state: tuple) -> None:
        self.trace_id, self.span_id = state

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpanContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
        )

    def __repr__(self) -> str:
        return f"SpanContext({self.trace_id!r}, {self.span_id})"


class Span:
    """One timed node of the trace tree."""

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "start",
        "end",
        "children",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        span_id: int,
        parent_id: Optional[int],
        start: float,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.children: list["Span"] = []

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def set_attr(self, **attrs: object) -> None:
        """Attach (or update) attributes on an open span."""
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.closed else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class Tracer:
    """Thread-safe recorder of a forest of span trees.

    Usually a traced operation produces exactly one root (the
    ``async_tmap`` / ``tmap`` span); the forest form keeps the tracer
    reusable across several runs when a caller wants one trace file for
    a whole session (``repro serve --trace`` does this: one
    ``service.request`` root per untraced request).
    """

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self._local = threading.local()
        self._next_id = 1
        #: Run-scoped correlation id.  Every process participating in
        #: one logical run (CLI client, daemon, pool workers) builds its
        #: tracer with the same id, so the stitched tree shares one
        #: handle.
        self.trace_id = trace_id or _new_trace_id()
        # Clock anchor: spans are stamped with ``perf_counter``, which
        # is not comparable across processes.  The (epoch, perf) pair
        # taken here lets ``graft`` rebase a worker's timestamps into
        # this tracer's frame via wall-clock time.
        self._anchor_epoch = time.time()
        self._anchor_perf = time.perf_counter()

    # -- active-span tracking (per thread) ------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on *this* thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span lifecycle --------------------------------------------------
    def start_span(
        self, name: str, parent: Optional[Span] = None, **attrs: object
    ) -> Span:
        """Open a span; prefer the :meth:`span` context manager.

        ``parent`` overrides the thread-local current span — required
        when the span belongs under a span opened elsewhere (the batch
        engine parents each ``batch_job`` span to its run span this way).
        """
        if parent is None:
            parent = self.current()
        with self._lock:
            span = Span(
                name=name,
                attrs=dict(attrs),
                span_id=self._next_id,
                parent_id=parent.span_id if parent is not None else None,
                start=time.perf_counter(),
            )
            self._next_id += 1
            if parent is not None:
                parent.children.append(span)
            else:
                self._roots.append(span)
        self._stack().append(span)
        return span

    def finish_span(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(
        self, name: str, parent: Optional[Span] = None, **attrs: object
    ) -> Iterator[Span]:
        """Context manager opening a child of the current (or given) span."""
        opened = self.start_span(name, parent=parent, **attrs)
        try:
            yield opened
        finally:
            self.finish_span(opened)

    # -- introspection / export ------------------------------------------
    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def all_spans(self) -> list[Span]:
        return [span for root in self.roots() for span in root.walk()]

    def validate(self) -> list[str]:
        """Well-formedness problems of the recorded forest (empty = ok).

        Checks every span is closed, durations are non-negative, and
        each child's interval lies within its parent's.
        """
        problems: list[str] = []
        for root in self.roots():
            for span in root.walk():
                if not span.closed:
                    problems.append(f"span {span.name!r} (#{span.span_id}) never closed")
                    continue
                assert span.end is not None
                if span.end < span.start - _TIME_EPSILON:
                    problems.append(
                        f"span {span.name!r} (#{span.span_id}) ends before it starts"
                    )
                for child in span.children:
                    if child.parent_id != span.span_id:
                        problems.append(
                            f"span {child.name!r} (#{child.span_id}) has parent_id "
                            f"{child.parent_id}, expected {span.span_id}"
                        )
                    if child.start < span.start - _TIME_EPSILON:
                        problems.append(
                            f"span {child.name!r} (#{child.span_id}) starts before "
                            f"its parent {span.name!r}"
                        )
                    if (
                        child.closed
                        and span.closed
                        and child.end > span.end + _TIME_EPSILON
                    ):
                        problems.append(
                            f"span {child.name!r} (#{child.span_id}) ends after "
                            f"its parent {span.name!r}"
                        )
        return problems

    def assert_well_formed(self) -> None:
        problems = self.validate()
        if problems:
            raise ValueError("malformed trace:\n  " + "\n  ".join(problems))

    def to_dict(self) -> dict:
        return {
            "schema": "repro-trace/v1",
            "trace_id": self.trace_id,
            "clock": {"epoch": self._anchor_epoch, "perf": self._anchor_perf},
            "spans": [root.to_dict() for root in self.roots()],
        }

    # -- distributed propagation -----------------------------------------
    def context(self, span: Optional[Span] = None) -> SpanContext:
        """The :class:`SpanContext` to forward to a remote worker.

        ``span`` (default: this thread's current span) becomes the
        remote parent; span id 0 means "root of the remote side".
        """
        if span is None:
            span = self.current()
        return SpanContext(
            self.trace_id, span.span_id if span is not None else 0
        )

    def graft(self, payload: dict, parent: Span) -> list[Span]:
        """Re-parent an exported span forest under a local ``parent``.

        ``payload`` is another tracer's ``to_dict()`` — typically a
        pool worker's or the daemon's, shipped back inside a result.
        Its timestamps are rebased from the remote ``perf_counter``
        frame into this tracer's via the clock anchors, then clamped
        into ``parent``'s (closed) interval so anchor-capture jitter
        can never break ``validate()``'s containment checks.  Grafted
        spans get fresh ids from this tracer's counter; a worker span
        that never closed is closed at zero duration rather than
        poisoning the coordinator's tree.
        """
        if payload.get("schema") != "repro-trace/v1":
            raise ValueError(
                f"cannot graft schema {payload.get('schema')!r}; "
                "expected 'repro-trace/v1'"
            )
        remote_id = payload.get("trace_id")
        if remote_id is not None and remote_id != self.trace_id:
            raise ValueError(
                f"trace_id mismatch: grafting {remote_id!r} into "
                f"{self.trace_id!r}"
            )
        if not parent.closed:
            raise ValueError(
                f"graft parent {parent.name!r} must be closed first"
            )
        assert parent.end is not None
        clock = payload.get("clock")

        def convert(stamp: Optional[float]) -> Optional[float]:
            if stamp is None:
                return None
            if clock:
                epoch = clock["epoch"] + (stamp - clock["perf"])
                local = self._anchor_perf + (epoch - self._anchor_epoch)
            else:
                local = stamp
            return min(max(local, parent.start), parent.end)

        def build(node: dict, under: Span) -> Span:
            span = Span(
                name=str(node["name"]),
                attrs=dict(node.get("attrs") or {}),
                span_id=self._next_id,
                parent_id=under.span_id,
                start=convert(node["start"]),
            )
            self._next_id += 1
            end = convert(node.get("end"))
            span.end = span.start if end is None else max(end, span.start)
            under.children.append(span)
            for child in node.get("children") or ():
                build(child, span)
            return span

        with self._lock:
            return [build(root, parent) for root in payload.get("spans") or ()]

    def __repr__(self) -> str:
        return f"Tracer(roots={len(self.roots())})"


class _NullSpan:
    """Inert span yielded by the null tracer; accepts and drops attrs."""

    __slots__ = ()
    name = ""
    attrs: dict = {}
    children: list = []
    closed = True
    duration = 0.0
    span_id = 0
    parent_id = None

    def set_attr(self, **attrs: object) -> None:
        pass


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullTracer:
    """Do-nothing tracer used when tracing is disabled.

    ``span`` hands back one shared no-op context manager, so the
    disabled-tracing cost per instrumented phase is a method call and a
    ``with`` block — measured at <5% of the Table-5 workload
    (``benchmarks/bench_obs_overhead.py``).
    """

    __slots__ = ()
    #: Disabled tracing has no correlation id; instrumented sites test
    #: ``tracer.trace_id is not None`` to decide whether to propagate.
    trace_id = None

    def span(
        self, name: str, parent: Optional[Span] = None, **attrs: object
    ) -> _NullContext:
        return _NULL_CONTEXT

    def context(self, span: Optional[Span] = None) -> None:
        return None

    def graft(self, payload: dict, parent: object) -> list:
        return []

    def start_span(
        self, name: str, parent: Optional[Span] = None, **attrs: object
    ) -> _NullSpan:
        return _NULL_SPAN

    def finish_span(self, span: object) -> None:
        pass

    def current(self) -> None:
        return None

    def roots(self) -> list:
        return []

    def validate(self) -> list[str]:
        return []

    def to_dict(self) -> dict:
        return {"schema": "repro-trace/v1", "spans": []}


#: Shared no-op tracer; instrumented code does ``tracer = tracer or NULL_TRACER``.
NULL_TRACER = NullTracer()
