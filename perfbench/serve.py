"""serve-mixed: the ``repro serve`` daemon under open-loop ``/v1/map`` load.

The daemon runs as ``python -m repro serve`` (threads backend, 2
workers, ``--preload ACTEL CMOS3``, a fresh ``--cache-dir``) pinned to
one CPU; this process generates the load from another, over at most
two connections, at a fixed rate well below capacity.  Each request is
timed from the moment it was due, so a stall also delays the requests
queued behind it.  Times are corrected for host speed by a
``speed.Sampler`` on the daemon's CPU.  Layer numbers come from the
client and from the daemon's ``/metrics`` endpoint; nothing is hooked
inside the daemon.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter

from common import (OBJECTIVES, ROOT, Scratch, cpus, hermetic_env, median,
                    pin, status_kib, stop, tail)
from metrics import PER_LAYER
from speed import Sampler

SMALL = ("chu-ad-opt", "dme-opt", "dme", "vanbek-opt")
#: Mid designs stay at depth 3 (30-360 ms a miss): at depth 4-5 a miss
#: takes up to 0.9 s, and on two connections the hits due meanwhile
#: queued behind it, so the latency sum and tail swung 3x between runs.
MID = ("dme-fast-opt", "dme-fast", "pe-send-ifc")
LIBRARIES = ("ACTEL", "CMOS3")
MODES = ("async", "sync")
#: Requests per second, and the generator's connection limit.
RATE = 20.0
CONNECTIONS = 2
#: Daemon boots per run; the last one serves the load.
BOOTS = 3


@dataclass(frozen=True)
class Key:
    """One result-cache key.  By-name and inline requests for the same
    design are different keys: the BLIF round trip is not canonical, so
    the two networks (and their mappings) can differ."""

    design: str
    library: str
    mode: str
    objective: str
    depth: int
    inline: bool


@dataclass
class Sent:
    """One request of the schedule and what came back."""

    key: Key
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    response: object = None
    error: str = ""


def fresh_keys(rng: random.Random) -> tuple[list[Key], list[Key]]:
    """The small and the mid keys, each list in seeded order.

    Every small-design key at depth 3-5 (96) and every mid-design key
    at depth 3 (24): 120 keys, more than the 64-entry memory tier
    holds.  Half of each design's keys go as inline BLIF, the others by
    catalog name, in a fixed checkerboard over library, mode, objective
    and depth, so every seed sends the same requests.  (A seeded choice
    moved seconds of work between seeds: pe-send-ifc's CMOS3 async area
    miss takes 0.5 s by name and 0.2 s inline.)
    """
    def keys(designs, depths):
        return [Key(d, lib, mode, obj, depth,
                    (LIBRARIES.index(lib) + MODES.index(mode)
                     + OBJECTIVES.index(obj) + depth) % 2 == 1)
                for d in designs for lib in LIBRARIES for mode in MODES
                for obj in OBJECTIVES for depth in depths]

    small, mid = keys(SMALL, (3, 4, 5)), keys(MID, (3,))
    rng.shuffle(small)
    rng.shuffle(mid)
    return small, mid


#: Where misses fall in each block of 25 requests (1.25 s): four small
#: keys and one mid key.  Fixed positions keep two mid misses from ever
#: overlapping; seeded positions let them pile up, and the sum and tail
#: of latency then swung by half between seeds.
BLOCK = 25
SMALL_SLOTS = (0, 6, 18, 22)
MID_SLOT = 12
#: A repeat only draws keys first sent at least this many slots (1 s)
#: earlier, twice the slowest miss: a repeat of a key still being
#: computed is a second miss, and seeds differed in how many they had.
SETTLE = 20
#: The warm-up request's key, outside the mix (depth 2), so it never
#: pre-fills it; repeats fall back to it while no key has settled.
WARMUP = Key("dme", "ACTEL", "async", "area", 2, False)


def schedule(seed: int, seconds: float) -> list[Sent]:
    """The seeded request list at :data:`RATE` for ``seconds``.

    Each fresh key is sent once, as a miss, at the next free slot of
    its kind; every other request repeats a key that has settled (see
    :data:`SETTLE`), drawn uniformly: hits, from the memory or the disk
    tier.
    """
    rng = random.Random(f"serve-mixed/{seed}")
    small, mid = fresh_keys(rng)
    small, mid = iter(small), iter(mid)
    sent: list[tuple[int, Key]] = []
    plan = []
    for position in range(int(RATE * seconds)):
        offset = position % BLOCK
        key = None
        if offset in SMALL_SLOTS:
            key = next(small, None)
        elif offset == MID_SLOT:
            key = next(mid, None)
        if key is None:
            settled = [k for first, k in sent
                       if first <= position - SETTLE]
            key = rng.choice(settled) if settled else WARMUP
        else:
            sent.append((position, key))
        plan.append(Sent(key))
    return plan


class Daemon:
    """One ``repro serve`` subprocess with its own fresh cache dir."""

    def __init__(self, scratch: Scratch, cpu: int, speed: Sampler,
                 trace_path=None) -> None:
        from repro.service.client import ServiceClient

        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--backend", "threads", "--workers", "2",
                   "--preload", *LIBRARIES,
                   "--cache-dir", str(scratch.fresh("daemon-cache"))]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        self.log = open(scratch.fresh("daemon-log") / "stderr.txt", "w")
        self.started = perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True, cwd=ROOT,
                                     env=hermetic_env())
        pin(cpu, self.proc.pid)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.close()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.client = ServiceClient(line.split()[-1], timeout=120.0)
        try:
            response = self.client.map(warmup_request())
        except BaseException:
            self.close()
            raise
        #: Boot plus the first (warm-up) request, from a fresh
        #: interpreter, at the reference host speed.
        self.ready = perf_counter()
        self.setup_s = speed.corrected(self.started, self.ready)
        if response.fallback is not None:
            self.close()
            raise RuntimeError("warm-up request fell back")

    def status_kib(self, field: str) -> int:
        return status_kib(field, self.proc.pid)

    def close(self) -> None:
        stop(self.proc, timeout=60.0)
        self.log.close()


def warmup_request():
    return map_request(WARMUP, {})


def map_request(key: Key, sources: dict):
    from repro.api import MapRequest

    where = ({"network": {"blif": sources[key.design], "name": key.design}}
             if key.inline else {"design": key.design})
    return MapRequest(library=key.library, mode=key.mode,
                      objective=key.objective, max_depth=key.depth,
                      result_cache=True, **where)


def drive(daemon: Daemon, plan: list[Sent], sources: dict) -> None:
    """Send ``plan`` open-loop at :data:`RATE` over two connections."""
    requests = [map_request(s.key, sources) for s in plan]
    lock = threading.Lock()
    cursor = iter(range(len(plan)))
    start = perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            item = plan[index]
            item.due = start + index / RATE
            delay = item.due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            item.sent = perf_counter()
            try:
                item.response = daemon.client.map(requests[index])
            except Exception as exc:  # counted as a failed request
                item.error = f"{type(exc).__name__}: {exc}"
            item.done = perf_counter()

    # Daemon threads: a run interrupted mid-schedule exits at once.
    threads = [threading.Thread(target=sender, name=f"load-{i}", daemon=True)
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def check(plan: list[Sent]) -> list[str]:
    """Why each failed request failed: errors, fallbacks, digest
    mismatches, and repeats not byte-identical to the key's first answer."""
    first: dict[Key, str] = {}
    failures = []
    for item in sorted(plan, key=lambda s: s.done):
        response = item.response
        if response is None:
            failures.append(f"{item.key}: {item.error}")
        elif response.status != "ok" or response.fallback is not None:
            failures.append(f"{item.key}: {response.status} "
                            f"fallback={response.fallback}")
        elif response.digest != hashlib.sha256(
                response.blif.encode("utf-8")).hexdigest():
            failures.append(f"{item.key}: digest is not the BLIF's SHA-256")
        elif first.setdefault(item.key, response.blif) != response.blif:
            failures.append(f"{item.key}: repeat differs "
                            f"(cached={response.cached})")
    return failures


def _value(snapshot: dict, name: str, field: str = "value") -> float:
    metric = snapshot["metrics"].get(name)
    return float(metric.get(field, 0)) if metric else 0.0


def _delta(before: dict, after: dict, name: str, field: str = "value"):
    return _value(after, name, field) - _value(before, name, field)


def _annotate_seconds(trace_path) -> float:
    """Seconds in ``annotate_library`` spans of the daemon's trace."""
    def walk(spans):
        for span in spans:
            yield span
            yield from walk(span.get("children", ()))

    document = json.loads(trace_path.read_text())
    return sum(s["duration"] for s in walk(document["spans"])
               if s["name"] == "annotate_library")


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.api import MapRequest
    from repro.api.facade import netlist_blif, request_netlist

    daemon_cpu, load_cpu = cpus()
    pin(load_cpu)
    plan = schedule(seed, seconds)
    sources = {
        d: netlist_blif(request_netlist(MapRequest(library="ACTEL", design=d)))
        for d in {s.key.design for s in plan}
    }
    with Scratch("serve-mixed") as scratch, Sampler(daemon_cpu) as speed:
        setups = []
        for _ in range(BOOTS - 1):
            probe = Daemon(scratch, daemon_cpu, speed)
            setups.append(probe.setup_s)
            probe.close()
        trace_path = scratch.root / "daemon-trace.json" if trace else None
        daemon = Daemon(scratch, daemon_cpu, speed, trace_path)
        setups.append(daemon.setup_s)
        try:
            before = daemon.client.metrics()
            rss_before = daemon.status_kib("VmRSS")
            drive(daemon, plan, sources)
            after = daemon.client.metrics()
            rss_after = daemon.status_kib("VmRSS")
            peak_mb = daemon.status_kib("VmHWM") / 1024.0
        finally:
            daemon.close()
        annotate_s = (_annotate_seconds(trace_path)
                      * speed.factor(daemon.started, daemon.ready)
                      if trace else 0.0)
    failures = check(plan)
    failed = len(failures)
    latency = [speed.corrected(s.due, s.done) for s in plan]
    service = [speed.corrected(s.sent, s.done) for s in plan]
    # The drive's mean speed factor, for the daemon's own timings.
    scale = speed.factor(plan[0].due, max(s.done for s in plan))
    result = {"correct": failed == 0, "attempted": len(plan),
              "failed": failed}
    value, count, percentile = tail(latency)
    report = [f"{len(plan)} requests at {RATE:g}/s over {CONNECTIONS} "
              f"connections; tail is p{percentile:.2f} of {count}",
              f"service time {sum(service):.3f}s at reference speed, "
              f"{sum(s.done - s.sent for s in plan):.3f}s wall; "
              f"speed factor over the drive {scale:.3f}"]
    report += [f"failed: {reason}" for reason in failures[:5]]
    if not trace:
        result["metrics"] = {
            "setup_s": median(setups),
            # Service time (send to answer), without the waits for a
            # free connection that p50/tail count from the due time.
            "pass_s": sum(service),
            "p50_ms": median(latency) * 1e3,
            "tail_ms": value * 1e3,
            "correct_frac": (len(plan) - failed) / len(plan),
            "peak_rss_mb": peak_mb,
        }
        result["report"] = report
        return result
    answered = [(s, t) for s, t in zip(plan, service)
                if s.response is not None]
    hits = [t for s, t in answered if s.response.cached]
    misses = [t for s, t in answered if not s.response.cached]
    handled = _delta(before, after, "service.request.latency.map", "count")
    handle_ms = 1e3 * scale * _delta(
        before, after, "service.request.latency.map", "sum") / max(handled, 1)
    client_ms = 1e3 * median([t for _, t in answered]) if answered else 0.0
    client_mean_ms = 1e3 * sum(t for _, t in answered) / max(
        len(answered), 1)
    result_hits = _delta(before, after, "cache.result.hits")
    lookups = _delta(before, after, "cache.result.lookup_seconds", "count")
    # Hook-measured layers are not observable inside the daemon: 0 here.
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "library.annotate_s": annotate_s,
        "library.annotate_calls": _value(after, "library.annotate.calls"),
        "service.hit_ms": median(hits) * 1e3 if hits else 0.0,
        "service.miss_ms": median(misses) * 1e3 if misses else 0.0,
        "service.handle_ms": handle_ms,
        "service.transport_ms": client_mean_ms - handle_ms,
        "service.rejected": _delta(before, after, "service.rejected.429")
        + _delta(before, after, "service.rejected.503"),
        "service.errors": _delta(before, after, "service.errors"),
        "service.rss_growth_kb_per_1k": (rss_after - rss_before)
        * 1000.0 / len(plan),
        "cache.result_hit_frac": result_hits / lookups if lookups else 0.0,
        "cache.result_disk_hit_frac": (
            _delta(before, after, "cache.result.hits.disk") / result_hits
            if result_hits else 0.0),
        "cache.result_lookup_ms": 1e3 * scale * _delta(
            before, after, "cache.result.lookup_seconds", "sum")
        / max(lookups, 1),
        "load.late_ms": tail([s.sent - s.due for s in plan])[0] * 1e3,
    })
    result["metrics"] = metrics
    result["report"] = report + [
        f"client median {client_ms:.2f}ms; hits {len(hits)}, "
        f"misses {len(misses)}"]
    return result

