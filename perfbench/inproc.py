"""The closed-loop in-process workloads: map-async-actel, certify-actel.

One client in the benchmark process calls ``repro.api`` directly, one
request at a time.  A pass is the workload's fixed request list; after
one whole pass, rounds over its shorter requests repeat until
``--seconds`` are used, and each request's time is the median of its
samples, each corrected for host speed (``speed.py``).  Before each
request ``gc.collect()`` runs outside the timer.  Outputs are checked
outside the timed region.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, replace
from time import perf_counter

from common import (LIBRARY, MAP_DESIGNS, MAX_DEPTH, OBJECTIVES, OUT,
                    PLANTED_DESIGNS, WARMUP_DESIGN, Scratch, cpus, data_text,
                    load_manifest, median, pin, probe_setup, status_kib, tail)
from metrics import PER_LAYER
from speed import Sampler

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = {"map": 5, "certify": 9}


@dataclass
class Item:
    """One request of a workload's pass and its known answer."""

    label: str
    network: dict
    request: object
    expected: dict


def map_items(seed: int) -> list[Item]:
    """The seeded pass: every design once, in seeded order, each with a
    seeded objective, sent inline as BLIF."""
    from repro.api import MapRequest

    manifest = load_manifest()["designs"]
    rng = random.Random(f"map-async-actel/{seed}")
    designs = list(MAP_DESIGNS)
    rng.shuffle(designs)
    items = []
    for design in designs:
        objective = rng.choice(OBJECTIVES)
        network = {"blif": data_text(manifest[design]["source"]),
                   "name": design}
        items.append(Item(
            label=f"{design}/{objective}",
            network=network,
            request=MapRequest(library=LIBRARY, network=network,
                               max_depth=MAX_DEPTH, objective=objective),
            expected=manifest[design]["mappings"][objective],
        ))
    return items


def certify_items(seed: int) -> list[Item]:
    """The seeded pass: each design's committed mappings under both
    objectives, which must be certified, plus for each of
    :data:`PLANTED_DESIGNS` the planted-hazard variant of its area
    mapping, which must be rejected for a hazard; in seeded order, with
    a seeded ``CertifyRequest.seed``.

    The work is the same for every seed.  With one seeded objective per
    design the pass's median request changed with the seed (dme-fast-opt
    certifies in 0.63 s on its area mapping, 0.70 s on its delay one),
    and with variants planted on a seeded mapping so did its slowest
    (2.4 s and 2.9 s for dme-fast-opt's)."""
    from repro.api import CertifyRequest

    from plant import MAX_SUPPORT, plant_hazard

    manifest = load_manifest()["designs"]
    rng = random.Random(f"certify-actel/{seed}")
    items = []
    for design in MAP_DESIGNS:
        entry = manifest[design]
        source = data_text(entry["source"])
        network = {"blif": source, "name": design}
        for objective in OBJECTIVES:
            items.append(Item(
                label=f"{design}/{objective}",
                network=network,
                request=CertifyRequest(
                    mapped_blif=data_text(entry["mappings"][objective]["blif"]),
                    network=network, library=LIBRARY,
                    seed=rng.randrange(2**31)),
                expected={"certified": True},
            ))
        if design not in PLANTED_DESIGNS:
            continue
        planted, where = plant_hazard(
            source, data_text(entry["mappings"]["area"]["blif"]))
        # No library: the planted gate is no cell, so the cell check
        # would reject it for the wrong reason.
        items.append(Item(
            label=f"{design}/area+hazard@{where['output']}",
            network=network,
            request=CertifyRequest(mapped_blif=planted, network=network,
                                   seed=rng.randrange(2**31),
                                   exhaustive_limit=MAX_SUPPORT),
            expected={"certified": False},
        ))
    rng.shuffle(items)
    return items


def warmup_request(kind: str):
    """The untimed first request: the small warm-up design."""
    from repro.api import CertifyRequest, MapRequest

    entry = load_manifest()["designs"][WARMUP_DESIGN]
    network = {"blif": data_text(entry["source"]), "name": WARMUP_DESIGN}
    if kind == "map":
        return MapRequest(library=LIBRARY, network=network,
                          max_depth=MAX_DEPTH)
    return CertifyRequest(
        mapped_blif=data_text(entry["mappings"]["area"]["blif"]),
        network=network, library=LIBRARY)


class Client:
    """Calls the public API with this run's fresh cache directory."""

    def __init__(self, kind: str, cache_dir: str) -> None:
        import repro.api

        self.api = repro.api
        self.kind = kind
        self.cache_dir = cache_dir

    def call(self, request):
        # Looked up per call so a traced run's hooks are what runs.
        if self.kind == "map":
            return self.api.execute_map(request, cache_dir=self.cache_dir)
        return self.api.execute_certify(request, cache_dir=self.cache_dir)

    def timed(self, request) -> tuple[float, object]:
        started, finished, response = self.interval(request)
        return finished - started, response

    def interval(self, request) -> tuple[float, float, object]:
        gc.collect()
        started = perf_counter()
        response = self.call(request)
        return started, perf_counter(), response


def run_rounds(items, seconds: float, step) -> None:
    """One whole pass, then rounds over the requests that took at most
    a third of it, while they still fit before ``seconds`` run out.

    Short requests get 3-4 samples; a long one (scsi on map-async-actel)
    gets one in every run.  Repeating it whenever it fit made the
    sample count, and with it ``peak_rss_mb``, follow the host's speed.
    """
    deadline = perf_counter() + seconds
    last = [0.0] * len(items)
    for index, item in enumerate(items):
        last[index] = _step_time(step, index, item)
    short = [i for i, t in enumerate(last) if t <= sum(last) / 3]
    ran = True
    while ran:
        ran = False
        for index in short:
            if perf_counter() + last[index] <= deadline:
                last[index] = _step_time(step, index, items[index])
                ran = True


def _step_time(step, index: int, item) -> float:
    started = perf_counter()
    step(index, item)
    return perf_counter() - started


def run_passes(items, seconds: float, step) -> int:
    """Run whole passes until the next would overrun ``seconds``."""
    deadline = perf_counter() + seconds
    passes = 0
    while True:
        started = perf_counter()
        for index, item in enumerate(items):
            step(index, item)
        passes += 1
        now = perf_counter()
        if now + (now - started) > deadline:
            return passes


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def certify_map_response(client_cache: str, item: Item, response):
    """Certify a map response's netlist against its source design."""
    import repro.api as api

    return api.execute_certify(
        api.CertifyRequest(mapped_blif=response.blif, network=item.network,
                           library=LIBRARY),
        cache_dir=client_cache,
    )


def map_response_ok(response, certificate) -> bool:
    return (response.fallback is None and certificate.certified
            and certificate.equivalent and certificate.hazard_safe)


def certify_response_ok(item: Item, response) -> bool:
    if item.expected["certified"]:
        return response.certified
    return (not response.certified and response.equivalent
            and not response.hazard_safe)


def proof_frac(certificates) -> float:
    outputs = [o for c in certificates for o in c.certificate["outputs"]]
    return sum(o["method"] == "exhaustive" for o in outputs) / len(outputs)


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    kind = "map" if workload == "map-async-actel" else "certify"
    program_cpu, _ = cpus()
    pin(program_cpu)
    with Scratch(workload) as scratch:
        items = map_items(seed) if kind == "map" else certify_items(seed)
        client = Client(kind, str(scratch.fresh("cache")))
        if trace:
            with Sampler(program_cpu) as speed:
                return _traced(workload, kind, seed, seconds, items, client,
                               speed)
        intervals = [[] for _ in items]
        responses: list[list] = [[] for _ in items]

        def step(index: int, item: Item) -> None:
            started, finished, response = client.interval(item.request)
            intervals[index].append((started, finished))
            responses[index].append(response)

        with Sampler(program_cpu) as speed:
            setups = [probe_setup(kind, scratch, program_cpu, speed)
                      for _ in range(SETUPS[kind])]
            client.call(warmup_request(kind))
            run_rounds(items, seconds, step)
        peak_mb = status_kib("VmHWM") / 1024.0
        failed, attempted = _check(kind, client, items, responses)[:2]
    samples = [[speed.corrected(*span) for span in spans]
               for spans in intervals]
    wall = sum(median(e - s for s, e in spans) for spans in intervals)
    per_request = [median(s) for s in samples]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median(setups),
            "pass_s": sum(per_request),
            "p50_ms": median(per_request) * 1e3,
            "tail_ms": tail(per_request)[0] * 1e3,
            "correct_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_mb,
        },
        "report": [f"{item.label}: {median(s):.3f}s x{len(s)}"
                   for item, s in zip(items, samples)]
        + [f"pass {sum(per_request):.3f}s at reference speed, "
           f"{wall:.3f}s wall"],
    }


def _check(kind: str, client: Client, items, responses):
    """(failed, attempted, certificates, digest matches) over a run."""
    failed = attempted = matches = 0
    certificates = []
    for item, group in zip(items, responses):
        if kind == "map":
            verdicts = {}
            for response in group:
                if response.digest not in verdicts:
                    certificate = certify_map_response(
                        client.cache_dir, item, response)
                    certificates.append(certificate)
                    verdicts[response.digest] = map_response_ok(
                        response, certificate)
                attempted += 1
                failed += not verdicts[response.digest]
                matches += response.digest == item.expected["digest"]
        else:
            for response in group:
                attempted += 1
                failed += not certify_response_ok(item, response)
            certificates.append(group[0])
    return failed, attempted, certificates, matches


def _traced(workload: str, kind: str, seed: int, seconds: float, items,
            client: Client, speed: Sampler | None = None) -> dict:
    """Per-layer run: each request traced, then untraced (hooks out),
    then — for map — traced again in sync mode for the Table-4 ratio.

    With ``speed``, every time is scaled by the mean speed factor over
    the run, so layer times read in the units of ``pass_s``."""
    from hooks import Recorder

    recorder = Recorder()
    recorder.install()
    recorder.bucket = "warmup"
    started = perf_counter()
    client.call(warmup_request(kind))
    sync_requests = ([replace(item.request, mode="sync") for item in items]
                     if kind == "map" else [])
    traced = [[] for _ in items]
    untraced = [[] for _ in items]
    synced = [[] for _ in items]
    responses: list[list] = [[] for _ in items]

    def step(index: int, item: Item) -> None:
        recorder.request = item.label
        recorder.bucket = "pass"
        elapsed, response = client.timed(item.request)
        recorder.bucket = None
        traced[index].append(elapsed)
        responses[index].append(response)
        recorder.uninstall()
        untraced[index].append(client.timed(item.request)[0])
        recorder.install()
        if sync_requests:
            recorder.bucket = "sync"
            synced[index].append(client.timed(sync_requests[index])[0])
            recorder.bucket = None

    passes = run_passes(items, seconds, step)
    scale = speed.factor(started, perf_counter()) if speed else 1.0
    recorder.uninstall()
    spans = recorder.write_spans(OUT / f"{workload}-seed{seed}-spans.jsonl")
    failed, attempted, certificates, matches = _check(
        kind, client, items, responses)

    def stat(name):
        return recorder.stat("pass", name)

    def self_s(name):
        return stat(name).self_time * scale / passes

    def per_pass(name, key=None):
        s = stat(name)
        return (s.calls if key is None else s.extra.get(key, 0)) / passes

    def frac(name, key):
        s = stat(name)
        return s.extra.get(key, 0) / s.calls if s.calls else 0.0

    traced_pass = sum(sum(t) for t in traced) * scale / passes
    untraced_pass = sum(sum(t) for t in untraced) * scale / passes
    tt = stat("mapping.tt")
    root = "api.execute_map" if kind == "map" else "api.execute_certify"
    # The service layers only exist on serve-mixed: 0 here.
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "library.annotate_s": scale * sum(
            s.total for (_, name), s in recorder.stats.items()
            if name == "library.annotate"),
        "library.annotate_calls": sum(
            s.calls for (_, name), s in recorder.stats.items()
            if name == "library.annotate"),
        "mapping.tt_s": self_s("mapping.tt"),
        "mapping.tt_calls": per_pass("mapping.tt"),
        "mapping.tt_distinct_frac": (
            len(tt.extra.get("distinct", ())) / tt.calls if tt.calls else 0.0),
        "mapping.match_s": self_s("mapping.match"),
        "mapping.match_useful_frac": frac("mapping.match", "useful"),
        "mapping.collapse_s": self_s("mapping.collapse"),
        "mapping.cuts_s": self_s("mapping.cuts"),
        "mapping.clusters": per_pass("mapping.cuts", "clusters"),
        "mapping.cover_self_s": self_s("mapping.cover"),
        "mapping.async_over_sync": (
            sum(sum(t) for t in traced) / sum(sum(t) for t in synced)
            if sync_requests else 0.0),
        "mapping.area": sum(group[0].area for group in responses)
        if kind == "map" else 0.0,
        "hazards.analysis_s": self_s("hazards.analysis"),
        "hazards.filter_s": self_s("hazards.filter"),
        "hazards.filter_calls": per_pass("hazards.filter"),
        "hazards.filter_accept_frac": frac("hazards.filter", "useful"),
        "hazards.oracle_s": self_s("hazards.oracle"),
        "hazards.oracle_calls": per_pass("hazards.oracle"),
        "hazards.replay_s": self_s("hazards.replay"),
        "hazards.replays": per_pass("hazards.replay"),
        "network.decompose_s": self_s("network.decompose"),
        "network.partition_s": self_s("network.partition"),
        "io.blif_read_s": self_s("io.blif_read"),
        "io.blif_write_s": self_s("io.blif_write"),
        "boolean.bdd_s": self_s("boolean.bdd"),
        "boolean.tt_s": self_s("boolean.tt"),
        "boolean.label_s": self_s("boolean.label"),
        "conformance.certify_self_s": self_s("conformance.certify"),
        "conformance.transitions": per_pass("conformance.certify",
                                            "transitions"),
        "conformance.proof_frac": proof_frac(certificates),
        "api.other_s": self_s(root),
        "api.digest_match_frac": (matches / attempted
                                  if kind == "map" else 0.0),
        "trace.pass_s": traced_pass,
        "trace.overhead_frac": traced_pass / untraced_pass - 1.0,
    })
    hooked = recorder.total_self("pass") * scale / passes
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "missing": recorder.missing,
        "report": [
            f"passes {passes}; hooked self time {hooked:.3f}s of traced "
            f"pass {traced_pass:.3f}s; untraced {untraced_pass:.3f}s",
            f"spans: {len(recorder.spans)} written to {spans}",
        ],
    }
