"""Time calls into the program's layers from outside it.

A :class:`Recorder` wraps each target function in :data:`HOOKS` and
replaces every binding of the function object, found by identity,
across all loaded ``repro`` modules and the classes they define.  That
catches ``from x import f`` bindings, re-exports and call sites that
move between modules; lazy ``from x import f`` statements that run
after installation read the wrapper from the patched module.

Each call becomes a span ``(id, parent, hook, start, end, bucket,
request)`` kept in memory; a per-thread stack subtracts the time of
hooked callees, so every hook also gets a self time.  Generator
functions are timed over their iteration, not their creation.  A
hook whose target no longer exists is listed in
:attr:`Recorder.missing`, so its metrics are reported missing, never 0.

Calls are recorded only while :attr:`Recorder.bucket` is set, and the
statistics are kept per bucket, so the benchmark can separate the
measured pass from warm-up and from the sync comparison maps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Stat:
    """Per (bucket, hook) totals."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    #: Counts an observer derives from the calls' arguments and results.
    extra: dict = field(default_factory=dict)

    def bump(self, key: str, amount=1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def _observe_tt(stat: Stat, args, kwargs, result) -> None:
    order = args[1] if len(args) > 1 else kwargs["order"]
    stat.extra.setdefault("distinct", set()).add((result, len(order)))


def _observe_useful(stat: Stat, args, kwargs, result) -> None:
    stat.bump("useful", 1 if result else 0)


def _observe_clusters(stat: Stat, args, kwargs, result) -> None:
    stat.bump("clusters", sum(len(v) for v in result.values()))


def _observe_certificate(stat: Stat, args, kwargs, result) -> None:
    stat.bump("transitions", result.transitions_checked)


@dataclass(frozen=True)
class Hook:
    """A layer metric prefix and the function (``module``, ``qualname``)
    it is measured at; ``observe`` derives counts from each call."""

    name: str
    module: str
    qualname: str
    observe: Optional[Callable] = None


#: Layer boundaries timed in traced runs (name -> target).
HOOKS = (
    Hook("api.execute_map", "repro.api.facade", "execute_map"),
    Hook("api.execute_certify", "repro.api.facade", "execute_certify"),
    Hook("library.annotate", "repro.library.library",
         "Library.annotate_hazards"),
    Hook("network.decompose", "repro.network.decompose", "async_tech_decomp"),
    Hook("network.partition", "repro.network.partition", "partition"),
    Hook("mapping.cuts", "repro.mapping.cuts", "enumerate_clusters",
         _observe_clusters),
    Hook("mapping.collapse", "repro.mapping.cuts", "cluster_expression"),
    Hook("mapping.tt", "repro.mapping.match", "expression_truth_table",
         _observe_tt),
    Hook("mapping.match", "repro.mapping.match", "match_cluster",
         _observe_useful),
    Hook("mapping.cover", "repro.mapping.cover", "cover_cone"),
    Hook("hazards.analysis", "repro.hazards.analyzer", "analyze_expression"),
    Hook("hazards.filter", "repro.hazards.analyzer", "hazards_subset",
         _observe_useful),
    Hook("hazards.oracle", "repro.hazards.oracle", "classify_transition"),
    Hook("hazards.replay", "repro.hazards.witness", "replay_witness"),
    Hook("conformance.certify", "repro.conformance.certifier",
         "certify_mapping", _observe_certificate),
    Hook("boolean.bdd", "repro.boolean.bdd", "BddManager.from_expr"),
    Hook("boolean.tt", "repro.boolean.truthtable", "from_callable"),
    Hook("boolean.label", "repro.boolean.paths", "label_expression"),
    Hook("io.blif_read", "repro.io.formats", "read_blif"),
    Hook("io.blif_write", "repro.io.formats", "write_blif"),
)


def resolve(hook: Hook):
    """The live target object, or ``None`` when it no longer exists."""
    try:
        obj = importlib.import_module(hook.module)
        for part in hook.qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj if callable(obj) else None


def _owners(prefix: str):
    """Every loaded program module, and each class defined in one."""
    seen: set[int] = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or
                                  name.startswith(prefix + ".")):
            continue
        yield module
        for value in list(vars(module).values()):
            if (isinstance(value, type) and id(value) not in seen
                    and getattr(value, "__module__", "").startswith(prefix)):
                seen.add(id(value))
                yield value


class Recorder:
    """Installs the hooks and accumulates spans and per-bucket stats."""

    def __init__(self, hooks=HOOKS, prefix: str = "repro") -> None:
        self.prefix = prefix
        #: Spans and stats are recorded only while this is not None.
        self.bucket: Optional[str] = None
        self.request = None
        self.stats: dict[tuple[str, str], Stat] = {}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._unwrap: dict[int, object] = {}  # id(wrapper) -> original
        for hook in hooks:
            target = resolve(hook)
            if target is None:
                self.missing.append(hook.name)
                continue
            wrapper = self._wrap(hook, target)
            self._originals[id(target)] = target
            self._wrappers[id(target)] = wrapper
            self._unwrap[id(wrapper)] = target

    # -- installation -------------------------------------------------

    def install(self) -> int:
        """Bind every wrapper in place of its target; returns bindings."""
        return self._rebind(self._wrappers)

    def uninstall(self) -> int:
        """Put every original back, wherever a wrapper was bound."""
        return self._rebind(self._unwrap)

    def _rebind(self, table: dict) -> int:
        count = 0
        for owner in _owners(self.prefix):
            for attr, value in list(vars(owner).items()):
                if id(value) in table:
                    setattr(owner, attr, table[id(value)])
                    count += 1
        return count

    # -- recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _frame(self) -> list:
        """A new span frame: [child time, span id, parent span id]."""
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        return [0.0, span_id, stack[-1][1] if stack else None]

    def _close(self, hook: Hook, bucket: str, frame: list, start: float,
               end: float, active: float, outcome) -> None:
        with self._lock:
            stat = self.stats.get((bucket, hook.name))
            if stat is None:
                stat = self.stats[(bucket, hook.name)] = Stat()
            stat.calls += 1
            stat.total += active
            stat.self_time += active - frame[0]
            if outcome is not None and hook.observe is not None:
                hook.observe(stat, *outcome)
            self.spans.append((frame[1], frame[2], hook.name, start, end,
                               bucket, self.request))

    def _wrap(self, hook: Hook, func):
        recorder = self
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                bucket = recorder.bucket
                gen = func(*args, **kwargs)
                if bucket is None:
                    return (yield from gen)
                frame = recorder._frame()
                start = end = None
                active = 0.0
                sent = None
                try:
                    while True:
                        stack = recorder._stack()
                        stack.append(frame)
                        step = perf_counter()
                        start = step if start is None else start
                        try:
                            item = gen.send(sent)
                        finally:
                            end = perf_counter()
                            active += end - step
                            stack.pop()
                            if stack:
                                stack[-1][0] += end - step
                        sent = yield item
                except StopIteration as stop:
                    return stop.value
                finally:
                    gen.close()
                    if start is not None:
                        recorder._close(hook, bucket, frame, start, end,
                                        active, None)
            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            bucket = recorder.bucket
            if bucket is None:
                return func(*args, **kwargs)
            frame = recorder._frame()
            stack = recorder._stack()
            stack.append(frame)
            outcome = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                outcome = (args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                recorder._close(hook, bucket, frame, start, end, end - start,
                                outcome)
        return wrapper

    # -- results ------------------------------------------------------

    def stat(self, bucket: str, name: str) -> Stat:
        return self.stats.get((bucket, name)) or Stat()

    def total_self(self, bucket: str) -> float:
        return sum(s.self_time for (b, _), s in self.stats.items()
                   if b == bucket)

    def write_spans(self, path: Path) -> Path:
        """Write the in-memory spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(
                ["id", "parent", "hook", "start", "end", "bucket", "request"]
            ) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        return path
