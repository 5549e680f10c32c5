"""Trace well-formedness: closure, nesting, determinism, isolation.

The contract under test (``repro.obs.tracer``):

* every span a mapping run opens is closed, and child intervals nest
  inside their parents (``validate`` returns no problems);
* concurrent mapping runs with distinct tracers never leak spans into
  each other's trees.
"""

from __future__ import annotations

import threading

import pytest

from repro.mapping.mapper import MappingOptions, async_tmap, tmap
from repro.network.netlist import Netlist
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

EQUATIONS = {"f": "a*b + c", "g": "a'*c + b*c", "h": "(a + b)*c'"}
OTHER_EQUATIONS = {"p": "x*y + x'*z", "q": "y'*z' + x"}


class TestSpanLifecycle:
    def test_nested_spans_close_and_validate(self):
        tracer = Tracer()
        with tracer.span("outer", key="o") as outer:
            with tracer.span("inner") as inner:
                inner.set_attr(items=3)
        assert tracer.validate() == []
        assert outer.closed and inner.closed
        assert inner.parent_id == outer.span_id
        assert outer.children == [inner]
        assert tracer.roots() == [outer]
        assert inner.attrs == {"items": 3}
        assert inner.duration is not None and inner.duration >= 0

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("a") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                assert tracer.current() is b
            assert tracer.current() is a
        assert tracer.current() is None

    def test_unclosed_span_is_reported(self):
        tracer = Tracer()
        tracer.start_span("left-open")
        problems = tracer.validate()
        assert len(problems) == 1 and "never closed" in problems[0]
        with pytest.raises(ValueError, match="malformed trace"):
            tracer.assert_well_formed()

    def test_child_escaping_parent_interval_is_reported(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                pass
        child.end = parent.end + 1.0  # forged: child outlives its parent
        assert any("ends after" in p for p in tracer.validate())

    def test_walk_is_preorder(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        names = [s.name for s in tracer.roots()[0].walk()]
        assert names == ["root", "a", "a1", "b"]

    def test_to_dict_is_schema_stamped_and_recursive(self):
        tracer = Tracer()
        with tracer.span("root", design="x"):
            with tracer.span("leaf"):
                pass
        payload = tracer.to_dict()
        assert payload["schema"] == "repro-trace/v1"
        (root,) = payload["spans"]
        assert root["name"] == "root" and root["attrs"] == {"design": "x"}
        assert root["children"][0]["name"] == "leaf"
        assert root["children"][0]["parent_id"] == root["span_id"]


class TestCrossThreadParenting:
    def test_explicit_parent_adopts_worker_spans(self):
        tracer = Tracer()
        with tracer.span("cover") as cover:
            threads = [
                threading.Thread(
                    target=lambda i=i: tracer.finish_span(
                        tracer.start_span("cone", parent=cover, key=f"c{i}")
                    )
                )
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert tracer.validate() == []
        assert sorted(c.attrs["key"] for c in cover.children) == [
            "c0",
            "c1",
            "c2",
            "c3",
        ]

    def test_thread_local_stacks_do_not_interleave(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def run(name: str) -> None:
            with tracer.span(name):
                barrier.wait()  # both spans are open concurrently
                with tracer.span(name + ".child"):
                    pass

        threads = [threading.Thread(target=run, args=(n,)) for n in ("t1", "t2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.validate() == []
        roots = {r.name: r for r in tracer.roots()}
        # Each thread's child nests under its own root, never the peer's.
        assert set(roots) == {"t1", "t2"}
        for name, root in roots.items():
            assert [c.name for c in root.children] == [name + ".child"]


class TestMappingTraces:
    def test_async_run_covers_every_phase(self, mini_library):
        tracer = Tracer()
        net = Netlist.from_equations(EQUATIONS)
        async_tmap(net, mini_library, MappingOptions(tracer=tracer))
        tracer.assert_well_formed()
        (root,) = tracer.roots()
        assert root.name == "async_tmap"
        phases = [c.name for c in root.children]
        assert phases == ["decompose", "partition", "cover", "build_netlist"]
        cover = root.children[phases.index("cover")]
        assert len(cover.children) == cover.attrs["cones"] > 0
        for cone in cover.children:
            assert cone.name == "cone"
            assert set(cone.attrs) == {"key", "size"}
            assert [g.name for g in cone.children] == [
                "enumerate_clusters",
                "match_cover",
            ]

    def test_sync_run_traces_too(self, mini_library):
        tracer = Tracer()
        net = Netlist.from_equations(EQUATIONS)
        tmap(net, mini_library, MappingOptions(tracer=tracer))
        tracer.assert_well_formed()
        (root,) = tracer.roots()
        assert root.name == "tmap"
        assert "cover" in [c.name for c in root.children]

    def test_concurrent_runs_do_not_leak_spans(self, mini_library):
        tracers = {"one": Tracer(), "two": Tracer()}
        nets = {
            "one": Netlist.from_equations(EQUATIONS),
            "two": Netlist.from_equations(OTHER_EQUATIONS),
        }
        barrier = threading.Barrier(2)
        failures: list[Exception] = []
        results: dict[str, object] = {}

        def run(tag: str) -> None:
            try:
                barrier.wait()
                results[tag] = async_tmap(
                    nets[tag],
                    mini_library,
                    MappingOptions(tracer=tracers[tag]),
                )
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=run, args=(t,)) for t in tracers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        for tag, tracer in tracers.items():
            tracer.assert_well_formed()
            (root,) = tracer.roots()  # exactly one run recorded
            assert root.attrs["design"] == nets[tag].name
            (cover,) = [c for c in root.children if c.name == "cover"]
            # Exactly this run's cones — a leaked span from the peer run
            # (both were covering concurrently) would inflate the count.
            assert len(cover.children) == results[tag].stats.cones
            assert all(c.name == "cone" for c in cover.children)


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", key=1) as span:
            span.set_attr(ignored=True)
        assert span.attrs == {}
        assert NULL_TRACER.roots() == []
        assert NULL_TRACER.validate() == []
        assert NULL_TRACER.to_dict() == {"schema": "repro-trace/v1", "spans": []}
        assert NULL_TRACER.current() is None

    def test_null_span_context_is_shared(self):
        # One no-op context object is reused — the disabled-tracing path
        # allocates nothing per phase.
        assert NullTracer().span("a") is NullTracer().span("b")

    def test_mapping_without_tracer_records_nothing(self, mini_library):
        net = Netlist.from_equations(EQUATIONS)
        result = async_tmap(net, mini_library, MappingOptions())
        assert result.area > 0  # instrumentation stayed out of the way

