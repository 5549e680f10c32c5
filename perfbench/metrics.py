"""Every metric the benchmark prints: name, unit, direction and source.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks the two
agree.  A per-layer metric names the hook it is measured at (see
``hooks.HOOKS``); when that hook's target is missing the metric is
left out of the result and reported as missing, never printed as 0.
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "correct_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: name -> (unit, better, hook or None); "root" is the workload's entry
#: point (:data:`ROOT_HOOKS`).
PER_LAYER = {
    "library.annotate_s": ("s", "lower", "library.annotate"),
    "library.annotate_calls": ("count", "lower", None),
    "mapping.tt_s": ("s", "lower", "mapping.tt"),
    "mapping.tt_calls": ("count", "lower", "mapping.tt"),
    "mapping.tt_distinct_frac": ("ratio", "lower", "mapping.tt"),
    "mapping.match_s": ("s", "lower", "mapping.match"),
    "mapping.match_useful_frac": ("ratio", "higher", "mapping.match"),
    "mapping.collapse_s": ("s", "lower", "mapping.collapse"),
    "mapping.cuts_s": ("s", "lower", "mapping.cuts"),
    "mapping.clusters": ("count", "lower", "mapping.cuts"),
    "mapping.cover_self_s": ("s", "lower", "mapping.cover"),
    "mapping.async_over_sync": ("ratio", "lower", "api.execute_map"),
    "mapping.area": ("area", "lower", None),
    "hazards.analysis_s": ("s", "lower", "hazards.analysis"),
    "hazards.filter_s": ("s", "lower", "hazards.filter"),
    "hazards.filter_calls": ("count", "lower", "hazards.filter"),
    "hazards.filter_accept_frac": ("ratio", "higher", "hazards.filter"),
    "hazards.oracle_s": ("s", "lower", "hazards.oracle"),
    "hazards.oracle_calls": ("count", "lower", "hazards.oracle"),
    "hazards.replay_s": ("s", "lower", "hazards.replay"),
    "hazards.replays": ("count", "lower", "hazards.replay"),
    "network.decompose_s": ("s", "lower", "network.decompose"),
    "network.partition_s": ("s", "lower", "network.partition"),
    "io.blif_read_s": ("s", "lower", "io.blif_read"),
    "io.blif_write_s": ("s", "lower", "io.blif_write"),
    "boolean.bdd_s": ("s", "lower", "boolean.bdd"),
    "boolean.tt_s": ("s", "lower", "boolean.tt"),
    "boolean.label_s": ("s", "lower", "boolean.label"),
    "conformance.certify_self_s": ("s", "lower", "conformance.certify"),
    "conformance.transitions": ("count", "higher", "conformance.certify"),
    "conformance.proof_frac": ("ratio", "higher", None),
    "api.other_s": ("s", "lower", "root"),
    "api.digest_match_frac": ("ratio", "higher", None),
    "service.hit_ms": ("ms", "lower", None),
    "service.miss_ms": ("ms", "lower", None),
    "service.handle_ms": ("ms", "lower", None),
    "service.transport_ms": ("ms", "lower", None),
    "service.rejected": ("count", "lower", None),
    "service.errors": ("count", "lower", None),
    "service.rss_growth_kb_per_1k": ("KiB", "lower", None),
    "cache.result_hit_frac": ("ratio", "higher", None),
    "cache.result_disk_hit_frac": ("ratio", "higher", None),
    "cache.result_lookup_ms": ("ms", "lower", None),
    "load.late_ms": ("ms", "lower", None),
    "trace.pass_s": ("s", "lower", "root"),
    "trace.overhead_frac": ("ratio", "lower", "root"),
}

#: The API call each in-process workload times as one request.
ROOT_HOOKS = {"map-async-actel": "api.execute_map",
              "certify-actel": "api.execute_certify"}


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    return PER_LAYER[name][0]


def hook_of(name: str, workload: str):
    """The hook a per-layer metric is measured at on ``workload``."""
    hook = PER_LAYER[name][2]
    return ROOT_HOOKS.get(workload) if hook == "root" else hook
