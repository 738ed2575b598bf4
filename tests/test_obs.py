"""Tests for repro.obs: the tracing + metrics plane (PR 3)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import OBS, Snapshot, clock
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Tracer


class TestTracer:
    def test_span_nesting_via_stack(self):
        tracer = Tracer(seed=0)
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        by_name = {s["name"]: s for s in tracer.spans}
        assert by_name["inner"]["parent"] == outer.id
        assert "parent" not in by_name["outer"]
        # completion order: inner ends first
        assert [s["name"] for s in tracer.spans] == ["inner", "outer"]

    def test_begin_does_not_push_stack(self):
        tracer = Tracer(seed=0)
        with tracer.span("ambient") as ambient:
            a = tracer.begin("job", attempt=1)
            b = tracer.begin("job", attempt=2)
            with tracer.span("nested"):
                pass
            b.end()
            a.end(status="ok")
        jobs = [s for s in tracer.spans if s["name"] == "job"]
        # both parented under the ambient span, not under each other
        assert all(s["parent"] == ambient.id for s in jobs)
        nested = next(s for s in tracer.spans if s["name"] == "nested")
        assert nested["parent"] == ambient.id
        assert jobs[-1]["attrs"]["status"] == "ok"

    def test_end_is_idempotent(self):
        tracer = Tracer(seed=0)
        span = tracer.begin("once")
        span.end()
        span.end()
        assert len(tracer.spans) == 1

    def test_exception_unwind_pops_stack(self):
        tracer = Tracer(seed=0)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                inner = tracer.span("inner")  # never explicitly ended
                assert inner is not None
                raise RuntimeError("boom")
        assert tracer._stack == []

    def test_logical_clock_is_deterministic(self):
        def trace_once() -> list:
            tracer = Tracer(seed=42)
            with tracer.span("a", key="v"):
                with tracer.span("b"):
                    pass
            return tracer.spans

        assert trace_once() == trace_once()

    def test_export_jsonl_schema(self, tmp_path):
        tracer = Tracer(seed=0)
        with tracer.span("stage"):
            pass
        path = tracer.export_jsonl(tmp_path / "t.jsonl",
                                   metrics={"kind": "metrics"})
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert lines[0]["kind"] == "trace-header"
        assert lines[0]["version"] == obs.SCHEMA_VERSION
        assert lines[0]["spans"] == 1
        assert lines[1]["kind"] == "span"
        assert lines[-1]["kind"] == "metrics"


class TestSeededExportDeterminism:
    def test_traced_workload_bytes_identical(self, tmp_path):
        from repro.build import build_program
        from repro.toolchain import run_program

        paths = []
        for i in range(2):
            with obs.scoped(seed=123):
                result = run_program(build_program(
                    {"t": "int main(void){ return 7; }"}, mcfi=True).program)
                assert result.exit_code == 7
                paths.append(obs.export_trace(tmp_path / f"t{i}.jsonl"))
        first, second = (open(p, "rb").read() for p in paths)
        assert first == second

    def test_wall_metrics_suppressed_when_seeded(self):
        with obs.scoped(seed=1):
            assert not obs.wall_metrics_enabled()
        with obs.scoped(seed=None):
            assert obs.wall_metrics_enabled()
        assert not obs.wall_metrics_enabled()  # disabled again


class TestNullFastPath:
    def test_disabled_state_is_shared_singletons(self):
        assert not OBS.enabled
        assert OBS.tracer is NULL_TRACER
        assert OBS.metrics is NULL_METRICS

    def test_null_tracer_allocates_nothing(self):
        span = NULL_TRACER.span("anything", key="value")
        assert span is NULL_SPAN
        assert NULL_TRACER.begin("other") is NULL_SPAN
        span.set(more="attrs")
        span.end(status="ok")
        assert NULL_TRACER.spans == []

    def test_null_metrics_share_instruments(self):
        c1 = NULL_METRICS.counter("a")
        c2 = NULL_METRICS.counter("b")
        assert c1 is c2
        c1.inc(5)
        h = NULL_METRICS.histogram("h")
        h.observe(1.0)
        snap = NULL_METRICS.snapshot()
        assert snap.counters == {} and snap.histograms == {}

    def test_instrumented_run_records_nothing_when_disabled(self):
        from repro.build import build_program
        from repro.toolchain import run_program

        before_spans = len(OBS.tracer.spans)
        result = run_program(build_program(
            {"t": "int main(void){ return 3; }"}, mcfi=True).program)
        assert result.exit_code == 3
        assert result.obs is None
        assert len(OBS.tracer.spans) == before_spans
        assert OBS.metrics.snapshot().counters == {}


class TestMetrics:
    def test_counter_gauge_histogram(self):
        with obs.scoped(seed=0) as state:
            state.metrics.counter("c").inc()
            state.metrics.counter("c").inc(2)
            state.metrics.gauge("g").set(7)
            state.metrics.histogram("h").observe(1.0)
            state.metrics.histogram("h").observe(3.0)
            snap = state.metrics.snapshot()
        assert snap.counters["c"] == 3
        assert snap.gauges["g"] == 7
        assert snap.histograms["h"]["count"] == 2
        assert snap.histograms["h"]["total"] == 4.0

    def test_snapshot_round_trip(self):
        with obs.scoped(seed=0) as state:
            state.metrics.counter("c").inc(4)
            state.metrics.histogram("h").observe(2.5)
            snap = state.metrics.snapshot()
        clone = Snapshot.from_dict(snap.to_dict())
        assert clone.to_dict() == snap.to_dict()

    def test_snapshot_delta(self):
        with obs.scoped(seed=0) as state:
            state.metrics.counter("c").inc(2)
            earlier = state.metrics.snapshot()
            state.metrics.counter("c").inc(3)
            state.metrics.counter("new").inc()
            later = state.metrics.snapshot()
        delta = later.delta(earlier)
        assert delta.counters == {"c": 3, "new": 1}


class TestInstrumentation:
    def test_compile_and_run_spans_cover_layers(self):
        from repro.build import build_program
        from repro.toolchain import run_program

        with obs.scoped(seed=0) as state:
            result = run_program(build_program(
                {"t": "int main(void){ return 0; }"}, mcfi=True).program)
            assert result.ok
            names = {s["name"] for s in state.tracer.spans}
        assert {"build.session", "build.frontend", "build.units",
                "build.link", "cfg.generate",
                "vm.run", "runtime.run"} <= names

    def test_run_result_carries_metrics_delta(self):
        from repro.build import build_program
        from repro.toolchain import run_program

        with obs.scoped(seed=0):
            result = run_program(build_program(
                {"t": "int main(void){ return 0; }"}, mcfi=True).program)
        assert result.obs is not None
        assert result.obs["counters"]["vm.runs"] == 1
        assert result.obs["counters"]["vm.instructions"] > 0

    def test_hot_blocks_counted_and_spanned(self):
        """Each generated block is one ``vm.generate`` span inside
        ``vm.run``; the run counts them once, beside the blocks built."""
        from repro.build import build_program
        from repro.toolchain import run_program

        program = build_program({"t": """
            int main(void) {
                long i;
                long total = 0;
                for (i = 0; i < 100; i++) { total += i; }
                return (int)(total & 1);
            }
        """}, mcfi=True).program
        with obs.scoped(seed=0) as state:
            result = run_program(program)
            spans = [s for s in state.tracer.spans
                     if s["name"] == "vm.generate"]
        assert result.ok
        counters = result.obs["counters"]
        assert counters["vm.dispatch.blocks_generated"] == len(spans) > 0
        assert counters["vm.dispatch.blocks_built"] > len(spans)

    def test_update_transaction_span_and_counters(self):
        from repro.core.tables import IdTables
        from repro.core.transactions import UpdateLock, UpdateTransaction
        from repro.vm.memory import TableMemory

        tables = IdTables(TableMemory())
        tables.install({0x1000: 1}, {0: 1}, version=0)
        with obs.scoped(seed=0) as state:
            tx = UpdateTransaction(tables, UpdateLock(),
                                   new_tary={0x1000: 1, 0x1004: 2},
                                   new_bary={0: 1, 1: 2})
            for _ in tx.run():
                pass
            assert tx.completed
            names = [s["name"] for s in state.tracer.spans]
            snap = state.metrics.snapshot()
        assert "tx.update" in names
        assert snap.counters["tx.updates"] == 1
        assert snap.counters["tables.tary_writes"] >= 1

    def test_scoped_restores_prior_state(self):
        prior = (OBS.enabled, OBS.tracer, OBS.metrics)
        with obs.scoped(seed=0):
            assert OBS.enabled
        assert (OBS.enabled, OBS.tracer, OBS.metrics) == prior


class TestClock:
    def test_stopwatch(self):
        with clock.Stopwatch() as watch:
            pass
        assert watch.seconds >= 0.0

    def test_now_monotonic(self):
        a = clock.now()
        b = clock.now()
        assert b >= a
