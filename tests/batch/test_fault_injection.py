"""Fault-injection proof of the batch engine's robustness guarantees.

Every claim the engine makes — transient faults are retried with
exponential backoff, hangs degrade to the trivial cover at the
deadline, corrupted results are caught by digest verification, a dead
worker process is isolated without poisoning its neighbours — is
demonstrated here by injecting the corresponding fault through
:mod:`repro.testing.faults` and asserting the engine's observable
behaviour (statuses, attempt counts, backoff schedules, ``batch.*``
metrics) on both backends.

Fault plans are keyed on (job id, attempt number), so the same plan
replays identically on the ``serial`` and ``processes`` backends —
which the determinism test pins down explicitly.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.batch import text_digest
from repro.deadline import Deadline, DeadlineExceeded, checked_sleep
from repro.obs.tracer import Tracer
from repro.testing import faults
from repro.testing.faults import FaultInjected, FaultPlan, FaultSpec

from tests.batch.util import SMALL, by_id, make_jobs, run

BACKENDS = ("serial", "processes")
CHU = f"{SMALL[0]}@CMOS3"
VAN = f"{SMALL[1]}@CMOS3"


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    faults.clear_plan()


class TestFaultPrimitives:
    """The injection machinery itself (no mapping involved)."""

    def test_spec_rejects_unknown_kind_and_bad_window(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="cover.cone", kind="explode")
        with pytest.raises(ValueError, match="times"):
            FaultSpec(site="cover.cone", times=0)

    def test_spec_attempt_window(self):
        spec = FaultSpec(site="cover.cone", job="chu", times=2, after=1)
        assert not spec.matches("cover.cone", "chu-ad-opt@CMOS3", 1)
        assert spec.matches("cover.cone", "chu-ad-opt@CMOS3", 2)
        assert spec.matches("cover.cone", "chu-ad-opt@CMOS3", 3)
        assert not spec.matches("cover.cone", "chu-ad-opt@CMOS3", 4)
        assert not spec.matches("cover.cone", "vanbek-opt@CMOS3", 2)
        assert not spec.matches("netlist.build", "chu-ad-opt@CMOS3", 2)

    def test_plan_parse_round_trip(self):
        plan = FaultPlan.parse(
            ["raise@cover.cone#chu-ad-opt*2", "corrupt@netlist.build"]
        )
        first, second = plan.faults
        assert (first.kind, first.site, first.job, first.times) == (
            "raise", "cover.cone", "chu-ad-opt", 2
        )
        assert (second.kind, second.site, second.job, second.times) == (
            "corrupt", "netlist.build", None, 1
        )
        assert plan.for_site("cover.cone") == (first,)

    def test_plan_parse_rejects_malformed_specs(self):
        with pytest.raises(ValueError, match="expected KIND@SITE"):
            FaultPlan.parse(["nonsense"])
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse(["frobnicate@cover.cone"])

    def test_fire_without_plan_is_a_no_op(self):
        faults.clear_plan()
        faults.fire("cover.cone")
        assert faults.corrupt("netlist.build", "text") == "text"
        assert faults.active_plan() is None

    def test_spec_fires_at_most_once_per_attempt(self):
        plan = FaultPlan((FaultSpec(site="cover.cone"),))
        faults.install_plan(plan, job="j@L", attempt=1)
        with pytest.raises(FaultInjected):
            faults.fire("cover.cone")
        faults.fire("cover.cone")  # second visit in the same attempt
        # A fresh install (new attempt) re-arms it — but attempt 2 is
        # outside the spec's default times=1 window, so it stays quiet.
        faults.install_plan(plan, job="j@L", attempt=2)
        faults.fire("cover.cone")

    def test_corrupt_changes_digest_deterministically(self):
        plan = FaultPlan((FaultSpec(site="netlist.build", kind="corrupt"),))
        faults.install_plan(plan, job="j@L", attempt=1)
        torn = faults.corrupt("netlist.build", "payload")
        assert torn != "payload"
        assert text_digest(torn) != text_digest("payload")
        faults.install_plan(plan, job="j@L", attempt=1)
        assert faults.corrupt("netlist.build", "payload") == torn

    def test_plans_are_thread_local(self):
        """Regression: a process-global runtime let one thread's install
        clobber another's mid-flight, silently disarming faults on
        concurrent daemon requests, which run on their connection
        threads."""
        import threading

        plan = FaultPlan((FaultSpec(site="cover.cone", job="mine"),))
        faults.install_plan(plan, job="mine@L", attempt=1)
        seen = {}

        def other_thread():
            # This thread has no plan of its own ...
            seen["before"] = faults.active_plan()
            # ... and installing one must not disturb the main thread's.
            faults.install_plan(
                FaultPlan((FaultSpec(site="cover.cone", job="other"),)),
                job="other@L",
                attempt=1,
            )
            try:
                faults.fire("cover.cone")
            except FaultInjected:
                seen["fired"] = True

        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        assert seen["before"] is None
        assert seen["fired"] is True
        assert faults.active_plan() is plan
        with pytest.raises(FaultInjected):
            faults.fire("cover.cone")

    def test_exceptions_survive_pickling(self):
        """Regression: a mismatched args/__init__ pair fails to unpickle
        in the process pool's result thread and breaks the entire pool."""
        for exc in (FaultInjected("cover.cone", "boom"),
                    DeadlineExceeded("cover.cone", 1.5)):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)
            assert clone.args == exc.args


class TestDeadline:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0)

    def test_check_raises_with_site_after_expiry(self):
        deadline = Deadline(0.01)
        deadline.check("early")  # inside the budget: no raise
        time.sleep(0.02)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check("cover.cone")
        assert err.value.site == "cover.cone"

    def test_sleep_is_cut_short_at_the_deadline(self):
        deadline = Deadline(0.05)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            deadline.sleep(30.0, site="hang")
        assert time.monotonic() - started < 1.0

    def test_checked_sleep_without_deadline_sleeps_plainly(self):
        started = time.monotonic()
        checked_sleep(0.01, None)
        assert time.monotonic() - started >= 0.009


@pytest.mark.parametrize("backend", BACKENDS)
class TestRetryAndDegradation:
    def test_transient_fault_is_retried_with_backoff(self, backend, ann_cache):
        plan = FaultPlan.parse([f"raise@cover.cone#{SMALL[0]}"])
        tracer = Tracer()
        report, metrics = run(
            make_jobs(), backend, ann_cache, retries=2, fault_plan=plan,
            tracer=tracer,
        )
        assert report.ok
        chu, van = by_id(report, CHU), by_id(report, VAN)
        assert chu["attempts"] == 2
        assert chu["backoff_seconds"] == [0.01]
        assert van["attempts"] == 1 and van["backoff_seconds"] == []
        assert metrics.counter("batch.retries").value == 1
        assert metrics.counter("batch.jobs_ok").value == 2
        # Each attempt is a batch_job span whose status says how it ended.
        attempts = [
            (span.attrs["attempt"], span.attrs["status"])
            for span in tracer.all_spans()
            if span.name == "batch_job" and span.attrs["job"] == CHU
        ]
        assert [attempt for attempt, _ in attempts] == [1, 2]
        assert attempts[0][1].startswith("retry:transient: ")
        assert attempts[1][1] == "ok"

    def test_backoff_grows_exponentially(self, backend, ann_cache):
        plan = FaultPlan.parse([f"raise@cover.cone#{SMALL[0]}*2"])
        report, _ = run(
            make_jobs(), backend, ann_cache, retries=3, fault_plan=plan
        )
        chu = by_id(report, CHU)
        assert chu["status"] == "ok" and chu["attempts"] == 3
        assert chu["backoff_seconds"] == [0.01, 0.02]

    def test_persistent_fault_exhausts_the_retry_budget(
        self, backend, ann_cache
    ):
        plan = FaultPlan.parse([f"raise@cover.cone#{SMALL[0]}*9"])
        report, metrics = run(
            make_jobs(), backend, ann_cache, retries=1, fault_plan=plan
        )
        chu, van = by_id(report, CHU), by_id(report, VAN)
        assert chu["status"] == "failed"
        assert chu["attempts"] == 2
        assert "attempts exhausted" in chu["error"]
        assert van["status"] == "ok"  # the neighbour is untouched
        assert not report.ok
        assert report.counts()["failed"] == 1
        assert metrics.counter("batch.jobs_failed").value == 1

    def test_hang_degrades_to_trivial_cover_at_the_deadline(
        self, backend, ann_cache
    ):
        plan = FaultPlan.parse([f"hang@cover.cone#{SMALL[0]}"])
        started = time.monotonic()
        report, metrics = run(
            make_jobs(),
            backend,
            ann_cache,
            deadline=0.5,
            retries=1,
            fault_plan=plan,
        )
        # The injected 30s hang must have been cut at the 0.5s deadline.
        assert time.monotonic() - started < 15.0
        chu, van = by_id(report, CHU), by_id(report, VAN)
        assert report.ok
        assert chu["fallback"] == "trivial-cover"
        assert chu["deadline_site"] == "cover.cone"
        assert chu["attempts"] == 1  # degradation, not retry
        assert van.get("fallback") is None
        assert metrics.counter("batch.jobs_fallback").value == 1
        assert metrics.counter("batch.deadline_hits").value == 1
        # The fallback result is a real mapped netlist with a true digest.
        assert chu["blif"].strip() and text_digest(chu["blif"]) == chu["digest"]

    def test_corrupted_result_is_caught_and_retried(self, backend, ann_cache):
        plan = FaultPlan.parse([f"corrupt@netlist.build#{SMALL[0]}"])
        report, metrics = run(
            make_jobs(), backend, ann_cache, retries=2, fault_plan=plan
        )
        assert report.ok
        chu = by_id(report, CHU)
        assert chu["attempts"] == 2
        assert text_digest(chu["blif"]) == chu["digest"]
        assert "torn-by-fault" not in chu["blif"]
        assert metrics.counter("batch.corrupt_results").value == 1

    def test_corruption_every_attempt_fails_closed(self, backend, ann_cache):
        """A result that never verifies must not be reported as ok."""
        plan = FaultPlan.parse([f"corrupt@netlist.build#{SMALL[0]}*9"])
        report, _ = run(
            make_jobs((SMALL[0],)), backend, ann_cache, retries=1,
            fault_plan=plan,
        )
        chu = by_id(report, CHU)
        assert chu["status"] == "failed"
        assert "corrupted result digest" in chu["error"]


class TestHangSites:
    """Deadline coverage of the other two instrumented sites (serial)."""

    @pytest.mark.parametrize("site", ["annotate.library", "netlist.build"])
    def test_deadline_site_names_the_checkpoint(self, site, ann_cache):
        plan = FaultPlan.parse([f"hang@{site}#{SMALL[0]}"])
        report, _ = run(
            make_jobs((SMALL[0],)), "serial", ann_cache,
            deadline=0.4, fault_plan=plan,
        )
        chu = by_id(report, CHU)
        assert chu["status"] == "ok"
        assert chu["fallback"] == "trivial-cover"
        assert chu["deadline_site"] == site


class TestDeterminism:
    def test_same_plan_same_outcome_on_every_backend(self, ann_cache):
        plan = FaultPlan.parse(
            [f"raise@cover.cone#{SMALL[0]}", f"corrupt@netlist.build#{SMALL[1]}"]
        )
        outcomes = []
        for backend in BACKENDS:
            report, _ = run(
                make_jobs(), backend, ann_cache, retries=2, fault_plan=plan
            )
            outcomes.append(
                [
                    (r["job_id"], r["status"], r["attempts"], r["digest"])
                    for r in report.results
                ]
            )
        assert outcomes[0] == outcomes[1]


class TestCrashIsolation:
    """Process-backend only: a crash fault ``os._exit``\\ s the worker."""

    def test_transient_crash_breaks_the_pool_once_and_recovers(
        self, ann_cache
    ):
        plan = FaultPlan.parse([f"crash@cover.cone#{SMALL[0]}"])
        report, metrics = run(
            make_jobs(), "processes", ann_cache, retries=1, fault_plan=plan
        )
        assert report.ok
        chu, van = by_id(report, CHU), by_id(report, VAN)
        # The culprit burnt one attempt identifying itself; the innocent
        # neighbour was re-run at its original attempt number.
        assert chu["attempts"] == 2
        assert van["attempts"] == 1
        assert report.pool_breaks >= 1
        assert metrics.counter("batch.pool_breaks").value == report.pool_breaks

    def test_persistent_crasher_fails_alone(self, ann_cache):
        plan = FaultPlan.parse([f"crash@cover.cone#{SMALL[0]}*9"])
        report, _ = run(
            make_jobs(), "processes", ann_cache, retries=1, fault_plan=plan
        )
        chu, van = by_id(report, CHU), by_id(report, VAN)
        assert chu["status"] == "crashed"
        assert chu["attempts"] == 2
        assert "worker process died" in chu["error"]
        assert van["status"] == "ok" and van["attempts"] == 1
        assert report.pool_breaks >= 2
        assert report.counts()["crashed"] == 1

    def test_hard_timeout_kills_a_worker_that_never_checks_in(
        self, ann_cache, monkeypatch, tmp_path
    ):
        """A job that never reaches a deadline checkpoint times out at
        4× its budget, and its worker is killed with the old pool."""
        import os

        import repro.batch.jobs as jobs

        pid_file = tmp_path / "stuck.pid"
        execute_map = jobs.execute_map

        def stuck(request, **kwargs):
            if request.design == SMALL[0]:
                pid_file.write_text(str(os.getpid()))
                time.sleep(60)  # no checkpoint: the deadline cannot fire
            return execute_map(request, **kwargs)

        # Forked pool workers inherit the patch.
        monkeypatch.setattr(jobs, "execute_map", stuck)
        report, _ = run(
            make_jobs(), "processes", ann_cache, deadline=0.5, retries=0
        )
        chu, van = by_id(report, CHU), by_id(report, VAN)
        assert chu["status"] == "timeout"
        assert "hard deadline exceeded" in chu["error"]
        assert van["status"] == "ok"
        pid = int(pid_file.read_text())
        waited = time.monotonic() + 10.0
        while True:
            try:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    break
            except ChildProcessError:  # already reaped by its pool
                break
            assert time.monotonic() < waited, "the stuck worker outlived its run"
            time.sleep(0.05)
