"""Edge cases of the cooperative deadline machinery.

Covers budget validation, nested (inner/outer) deadlines, hang
truncation, and expiry landing exactly on the mapper's
``netlist.build`` checkpoint — both as a raw ``DeadlineExceeded`` and
as the facade's graceful trivial-cover degradation.
"""

from __future__ import annotations

import time

import pytest

from repro.api import MapRequest, facade, run_map
from repro.burstmode.benchmarks import synthesize_benchmark
from repro.deadline import Deadline, DeadlineExceeded, checked_sleep
from repro.library import anncache
from repro.library.standard import load_library
from repro.mapping.mapper import MappingOptions, map_network
from repro.testing import faults
from repro.testing.faults import FaultPlan


class TestBudgetValidation:
    @pytest.mark.parametrize("seconds", [0, -1, -0.001])
    def test_non_positive_budget_is_rejected(self, seconds):
        with pytest.raises(ValueError, match="positive"):
            Deadline(seconds)

    def test_tiny_budget_is_accepted_and_expires(self):
        deadline = Deadline(1e-9)
        time.sleep(0.001)
        assert deadline.expired()
        assert deadline.remaining() < 0

    def test_generous_budget_does_not_expire(self):
        deadline = Deadline(60)
        assert not deadline.expired()
        deadline.check("anywhere")  # must not raise


class TestNestedDeadlines:
    def test_inner_deadline_fires_before_outer(self):
        outer = Deadline(30)
        inner = Deadline(0.01)
        time.sleep(0.02)
        with pytest.raises(DeadlineExceeded) as excinfo:
            inner.check("inner.site")
        assert excinfo.value.site == "inner.site"
        outer.check("outer.site")  # outer budget is untouched

    def test_deadlines_are_independent_objects(self):
        first = Deadline(0.01)
        second = Deadline(0.01)
        time.sleep(0.02)
        assert first.expired() and second.expired()
        assert first.remaining() != pytest.approx(30.0)


class TestSleep:
    def test_sleep_is_cut_short_at_the_deadline(self):
        deadline = Deadline(0.05)
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.sleep(30.0, site="test.hang")
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, "a 30s hang must wake at the 0.05s deadline"
        assert excinfo.value.site == "test.hang"
        assert excinfo.value.seconds == pytest.approx(0.05)

    def test_sleep_within_budget_completes(self):
        deadline = Deadline(10)
        deadline.sleep(0.01)  # must not raise

    def test_checked_sleep_without_deadline_is_plain_sleep(self):
        started = time.monotonic()
        checked_sleep(0.01, None)
        assert time.monotonic() - started >= 0.009


class HangClockDeadline(Deadline):
    """A deadline whose clock runs only inside an injected hang.

    Its budget starts when the hang begins, so covering, however slow
    the host, can never use it up first: the only checkpoint that can
    see it expire is the hang's own site.
    """

    def __init__(self, seconds: float) -> None:
        super().__init__(seconds)
        self._expires = float("inf")

    def sleep(self, duration: float, site: str = "sleep") -> None:
        self._expires = time.monotonic() + self.seconds
        super().sleep(duration, site)


class TestNetlistBuildCheckpoint:
    """Expiry at the last checkpoint before the mapped netlist exists."""

    @pytest.fixture()
    def source(self):
        return synthesize_benchmark("chu-ad-opt").netlist("chu-ad-opt")

    @pytest.fixture()
    def library(self):
        library = load_library("CMOS3")
        if not library.annotated:
            library.annotate_hazards()
        return library

    def test_hang_at_netlist_build_raises_with_site(self, source, library):
        faults.install_plan(
            FaultPlan.parse(["hang@netlist.build"]), job="t@L", attempt=1
        )
        try:
            options = MappingOptions(
                max_depth=3,
                annotation_cache_dir=anncache.DISABLED,
                deadline=HangClockDeadline(0.05),
            )
            with pytest.raises(DeadlineExceeded) as excinfo:
                map_network(source, library, options)
        finally:
            faults.clear_plan()
        assert excinfo.value.site == "netlist.build"

    def test_facade_degrades_to_trivial_cover(self, library, monkeypatch):
        monkeypatch.setattr(facade, "Deadline", HangClockDeadline)
        faults.install_plan(
            FaultPlan.parse(["hang@netlist.build"]), job="t@L", attempt=1
        )
        try:
            response, result = run_map(
                MapRequest(
                    design="chu-ad-opt",
                    library="CMOS3",
                    max_depth=3,
                    deadline_seconds=0.05,
                ),
                library=library,
                cache_dir=anncache.DISABLED,
            )
        finally:
            faults.clear_plan()
        assert response.fallback == "trivial-cover"
        assert response.deadline_site == "netlist.build"
        assert result.mapped is not None
