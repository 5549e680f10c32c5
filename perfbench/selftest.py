"""Self-tests of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every hook fires on a small request of its workload, that
a removed hook target is reported missing (never as 0), that the
metric names match ``BENCHMARK.json``, that a traced run's self times
account for its traced pass, that the host-speed correction scales an
interval by the speed samples taken during it, and that the
correctness checks catch a corrupted netlist.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import time
import types
import unittest

from common import (LIBRARY, ROOT, WARMUP_DESIGN, Scratch, data_text,
                    ensure_hermetic, hermetic_env, load_manifest)

MAP_ONLY = {"api.execute_map", "library.annotate", "network.decompose",
            "network.partition", "mapping.cuts", "mapping.collapse",
            "mapping.tt", "mapping.match", "mapping.cover",
            "hazards.analysis", "hazards.filter", "io.blif_write"}


def small_items():
    """The warm-up design under both objectives (map-async-actel form)."""
    from repro.api import MapRequest

    import inproc

    entry = load_manifest()["designs"][WARMUP_DESIGN]
    network = {"blif": data_text(entry["source"]), "name": WARMUP_DESIGN}
    return [inproc.Item(f"{WARMUP_DESIGN}/{objective}", network,
                        MapRequest(library=LIBRARY, network=network,
                                   objective=objective),
                        entry["mappings"][objective])
            for objective in ("area", "delay")]


def planted_small():
    """A planted-hazard certify request on the warm-up design."""
    from repro.api import CertifyRequest

    from plant import MAX_SUPPORT, plant_hazard

    entry = load_manifest()["designs"][WARMUP_DESIGN]
    source = data_text(entry["source"])
    blif, _ = plant_hazard(source,
                           data_text(entry["mappings"]["area"]["blif"]))
    return CertifyRequest(mapped_blif=blif,
                          network={"blif": source, "name": WARMUP_DESIGN},
                          exhaustive_limit=MAX_SUPPORT)


def hook_counts() -> dict:
    """Calls per hook for one small map and one small certify request.

    Run in a fresh interpreter (``--hook-counts``): the program keeps
    process-wide caches (annotated libraries, hazard analyses) that
    would let a second request skip layers.
    """
    import repro.api as api
    from hooks import Recorder

    recorder = Recorder()
    recorder.install()
    with Scratch("selftest-hooks") as scratch:
        cache_dir = str(scratch.fresh("cache"))
        recorder.bucket = "map"
        api.execute_map(small_items()[0].request, cache_dir=cache_dir)
        recorder.bucket = "certify"
        api.execute_certify(planted_small(), cache_dir=cache_dir)
    recorder.bucket = None
    recorder.uninstall()
    return {"missing": recorder.missing,
            "calls": {f"{bucket}:{name}": stat.calls
                      for (bucket, name), stat in recorder.stats.items()}}


class HookTests(unittest.TestCase):
    def test_every_hook_fires_on_a_small_request_of_its_workload(self):
        from hooks import HOOKS

        child = subprocess.run(
            [sys.executable, __file__, "--hook-counts"], env=hermetic_env(),
            capture_output=True, text=True, timeout=300, check=True)
        counts = json.loads(child.stdout.splitlines()[-1])
        self.assertEqual(counts["missing"], [])
        for hook in HOOKS:
            bucket = "map" if hook.name in MAP_ONLY else "certify"
            with self.subTest(hook=hook.name):
                self.assertGreater(
                    counts["calls"].get(f"{bucket}:{hook.name}", 0), 0)

    def test_removed_target_is_reported_missing_not_zero(self):
        import repro.mapping.match as match

        import run

        original = match.expression_truth_table
        del match.expression_truth_table
        try:
            from hooks import Recorder

            recorder = Recorder()
        finally:
            match.expression_truth_table = original
        self.assertEqual(recorder.missing, ["mapping.tt"])
        values = {name: 0.0 for name in run.PER_LAYER}
        result = run.result_line("map-async-actel", True, {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": values, "missing": recorder.missing})
        dropped = set(run.PER_LAYER) - set(result["metrics"])
        self.assertEqual(dropped, {"mapping.tt_s", "mapping.tt_calls",
                                   "mapping.tt_distinct_frac"})

    def test_generators_are_timed_over_iteration_not_creation(self):
        from hooks import Hook, Recorder

        toy = types.ModuleType("perfbench_toy")

        def ticks(n):
            for i in range(n):
                time.sleep(0.02)
                yield i

        toy.ticks = ticks
        sys.modules[toy.__name__] = toy
        try:
            recorder = Recorder([Hook("toy.ticks", toy.__name__, "ticks")],
                                prefix=toy.__name__)
            recorder.install()
            recorder.bucket = "pass"
            gen = toy.ticks(3)
            time.sleep(0.05)  # between creation and iteration: not counted
            self.assertEqual(list(gen), [0, 1, 2])
            recorder.uninstall()
        finally:
            del sys.modules[toy.__name__]
        stat = recorder.stat("pass", "toy.ticks")
        self.assertEqual(stat.calls, 1)
        self.assertGreaterEqual(stat.self_time, 0.055)
        self.assertLess(stat.self_time, 0.1)
        self.assertIs(toy.ticks, ticks)


class TracedRunTests(unittest.TestCase):
    def test_self_times_account_for_the_traced_pass(self):
        import inproc
        from metrics import PER_LAYER

        with Scratch("selftest") as scratch:
            client = inproc.Client("map", str(scratch.fresh("cache")))
            outcome = inproc._traced("selftest", "map", 0, 0.0,
                                     small_items(), client)
        metrics = outcome["metrics"]
        self.assertTrue(outcome["correct"])
        layers = sum(value for name, value in metrics.items()
                     if PER_LAYER[name][0] == "s"
                     and name not in ("trace.pass_s", "library.annotate_s"))
        self.assertAlmostEqual(layers, metrics["trace.pass_s"],
                               delta=max(0.01 * metrics["trace.pass_s"],
                                         0.002))
        self.assertGreater(metrics["mapping.tt_s"], 0)


class SpeedTests(unittest.TestCase):
    def test_corrected_scales_by_the_samples_in_the_interval(self):
        from speed import Sampler

        speed = Sampler(0)
        # Half the reference speed before t = 2, the reference speed after.
        speed.samples = [(t / 4, 0.5 if t < 8 else 1.0) for t in range(16)]
        self.assertAlmostEqual(speed.corrected(0.0, 1.75), 0.875)
        self.assertAlmostEqual(speed.corrected(2.0, 3.75), 1.75)
        # Four slow and four fast samples in [1, 2.75].
        self.assertAlmostEqual(speed.corrected(1.0, 2.75), 1.75 * 0.75)
        # A short interval takes the window around its middle.
        self.assertAlmostEqual(speed.factor(1.0, 1.01), 0.5)
        self.assertAlmostEqual(speed.factor(3.5, 3.51), 1.0)

    def test_sampler_samples_while_it_runs(self):
        from common import cpus
        from speed import PERIOD_S, WINDOW_S, Sampler

        with Sampler(cpus()[0]) as speed:
            started = time.perf_counter()
            time.sleep(0.2)
            finished = time.perf_counter()
        self.assertGreaterEqual(len(speed.samples), WINDOW_S / PERIOD_S)
        self.assertGreater(speed.corrected(started, finished), 0.0)

    def test_a_failed_sampler_raises_instead_of_waiting(self):
        from speed import Sampler

        with self.assertRaises(RuntimeError):
            with Sampler(-1):  # no such CPU
                pass


class NamesTests(unittest.TestCase):
    def test_printed_names_match_benchmark_json(self):
        import run
        from metrics import END_TO_END, PER_LAYER

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            {name: spec_[:2] for name, spec_ in PER_LAYER.items()})


class CorrectnessTests(unittest.TestCase):
    def test_a_corrupted_netlist_drops_correct_frac_below_one(self):
        import inproc

        items = small_items()[:1]
        with Scratch("selftest") as scratch:
            client = inproc.Client("map", str(scratch.fresh("cache")))
            good = client.call(items[0].request)
            # Swap the first gate's rows: same shape, different function.
            lines = good.blif.splitlines()
            row = next(i for i, line in enumerate(lines)
                       if line.endswith(" 1") and "-" in line)
            lines[row] = lines[row].replace("-", "0", 1)
            bad = dataclasses.replace(good, blif="\n".join(lines) + "\n",
                                      digest="corrupted")
            failed, attempted = inproc._check(
                "map", client, items * 2, [[good], [bad]])[:2]
        self.assertEqual((failed, attempted), (1, 2))
        self.assertLess((attempted - failed) / attempted, 1.0)

    def test_certify_checks_both_verdicts(self):
        import repro.api as api

        import inproc

        entry = load_manifest()["designs"][WARMUP_DESIGN]
        network = {"blif": data_text(entry["source"]), "name": WARMUP_DESIGN}
        mapped = data_text(entry["mappings"]["area"]["blif"])
        clean = inproc.Item("clean", network, None, {"certified": True})
        planted = inproc.Item("planted", network, None, {"certified": False})
        certified = api.execute_certify(
            api.CertifyRequest(mapped_blif=mapped, network=network))
        rejected = api.execute_certify(planted_small())
        self.assertTrue(inproc.certify_response_ok(clean, certified))
        self.assertTrue(inproc.certify_response_ok(planted, rejected))
        self.assertFalse(inproc.certify_response_ok(clean, rejected))
        self.assertFalse(inproc.certify_response_ok(planted, certified))

    def test_serve_check_catches_a_repeat_that_differs(self):
        import serve

        def answer(blif, cached=None):
            return types.SimpleNamespace(
                status="ok", fallback=None, blif=blif, cached=cached,
                digest=hashlib.sha256(blif.encode()).hexdigest())

        key = serve.Key("dme", "ACTEL", "async", "area", 3, False)
        plan = [serve.Sent(key, done=1.0, response=answer("a\n")),
                serve.Sent(key, done=2.0, response=answer("a\n", "memory"))]
        self.assertEqual(serve.check(plan), [])
        plan.append(serve.Sent(key, done=3.0, response=answer("b\n", "disk")))
        self.assertEqual(len(serve.check(plan)), 1)


if __name__ == "__main__":
    ensure_hermetic()
    if sys.argv[1:] == ["--hook-counts"]:
        print(json.dumps(hook_counts()))
    else:
        unittest.main()
