"""The observability layer: tracer, metrics registry, exporters.

Covers the `repro.obs` primitives in isolation plus their integration
with the engine: span nesting/ordering for a full synthesis run, the
six pipeline stages in the Chrome export, registry-backed cache
stats, and the off-by-default contract.
"""

import json

import pytest

from repro import obs
from repro.core import (
    SynthesisCache,
    SynthesisOptions,
    synthesis_cache,
    synthesize,
)
from repro.core.design import SynthesizedDesign
from repro.explore import explore_fu_range
from repro.scheduling import ResourceConstraints
from repro.workloads import SQRT_SOURCE

TWO_FU = SynthesisOptions(constraints=ResourceConstraints({"fu": 2}))


class TestTracerCore:
    def test_disabled_by_default_records_nothing(self):
        with obs.trace_span("anything", key="value") as span:
            span.set(more="attrs")
        assert obs.tracer().records() == []
        assert not obs.tracing_enabled()

    def test_null_span_is_shared_singleton(self):
        assert obs.trace_span("a") is obs.trace_span("b")
        assert obs.trace_span("a") is obs.NULL_SPAN

    def test_nesting_depth_and_parent_links(self):
        with obs.tracing():
            with obs.trace_span("outer"):
                with obs.trace_span("middle"):
                    with obs.trace_span("inner"):
                        pass
                with obs.trace_span("sibling"):
                    pass
        outer, middle, inner, sibling = obs.tracer().records()
        assert [r.name for r in (outer, middle, inner, sibling)] == [
            "outer", "middle", "inner", "sibling"
        ]
        assert (outer.depth, middle.depth, inner.depth,
                sibling.depth) == (0, 1, 2, 1)
        assert outer.parent is None
        assert middle.parent == outer.index
        assert inner.parent == middle.index
        assert sibling.parent == outer.index

    def test_records_are_in_start_order_with_durations(self):
        with obs.tracing():
            with obs.trace_span("a"):
                with obs.trace_span("b"):
                    pass
        a, b = obs.tracer().records()
        assert a.start_us <= b.start_us
        assert a.duration_us >= b.duration_us > 0.0

    def test_attrs_and_set(self):
        with obs.tracing():
            with obs.trace_span("s", x=1) as span:
                span.set(y=2)
        (record,) = obs.tracer().records()
        assert record.attrs == {"x": 1, "y": 2}

    def test_scope_restores_previous_flag(self):
        assert not obs.tracing_enabled()
        with obs.tracing():
            assert obs.tracing_enabled()
            with obs.tracing(False):
                assert not obs.tracing_enabled()
            assert obs.tracing_enabled()
        assert not obs.tracing_enabled()

    def test_env_variable_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        obs.reset_tracing()
        assert obs.tracing_enabled()
        monkeypatch.setenv("REPRO_TRACE", "0")
        obs.reset_tracing()
        assert not obs.tracing_enabled()

    def test_merge_grafts_children_under_parent(self):
        with obs.tracing():
            with obs.trace_span("worker.root"):
                with obs.trace_span("worker.child"):
                    pass
        child_records = obs.tracer().records()
        obs.reset_tracing()

        with obs.tracing():
            with obs.trace_span("sweep"):
                parent = obs.tracer().current_index()
                obs.tracer().merge(child_records, parent=parent)
        sweep, root, child = obs.tracer().records()
        assert sweep.name == "sweep"
        assert root.parent == sweep.index and root.depth == 1
        assert child.parent == root.index and child.depth == 2


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = obs.MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7.5)
        registry.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        registry.histogram("h").observe(5.0)
        registry.histogram("h").observe(50.0)
        assert registry.counters() == {"c": 3}
        assert registry.gauges() == {"g": 7.5}
        hist = registry.histograms()["h"]
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.mean == pytest.approx(55.5 / 3)

    def test_labels_render_sorted_and_distinct(self):
        registry = obs.MetricsRegistry()
        registry.counter("n", b="2", a="1").inc()
        registry.counter("n", a="1", b="2").inc()
        registry.counter("n", a="9").inc()
        assert registry.counters() == {"n{a=1,b=2}": 2, "n{a=9}": 1}

    def test_snapshot_merge_roundtrip(self):
        worker = obs.MetricsRegistry()
        worker.counter("c").inc(4)
        worker.gauge("g").set(3.0)
        worker.histogram("h").observe(2.0)
        snapshot = worker.snapshot()

        parent = obs.MetricsRegistry()
        parent.counter("c").inc()
        parent.gauge("g").set(5.0)
        parent.merge(snapshot)
        parent.merge(snapshot)
        assert parent.counters()["c"] == 9
        assert parent.gauges()["g"] == 5.0  # max wins
        assert parent.histograms()["h"].count == 2

    def test_merge_is_deterministic(self):
        snapshots = []
        for value in (1, 2, 3):
            registry = obs.MetricsRegistry()
            registry.counter("c").inc(value)
            registry.gauge("g").set(float(value))
            snapshots.append(registry.snapshot())
        merged_a = obs.MetricsRegistry()
        merged_b = obs.MetricsRegistry()
        for snapshot in snapshots:
            merged_a.merge(snapshot)
        for snapshot in snapshots:
            merged_b.merge(snapshot)
        assert merged_a.snapshot() == merged_b.snapshot()

    def test_mismatched_histogram_boundaries_rejected(self):
        worker = obs.MetricsRegistry()
        worker.histogram("h", buckets=(1.0,)).observe(0.5)
        parent = obs.MetricsRegistry()
        parent.histogram("h", buckets=(2.0,))
        with pytest.raises(ValueError):
            parent.merge(worker.snapshot())

    def test_reset_keeps_registered_objects_alive(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.counters() == {"c": 1}


class TestEngineTracing:
    def test_traced_synthesis_has_all_pipeline_stages(self):
        synthesize(SQRT_SOURCE, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}), trace=True,
        ))
        names = {r.name for r in obs.tracer().records()}
        assert set(obs.CORE_STAGES) <= names
        assert "synthesize" in names and "datapath" in names

    def test_stage_spans_nest_under_synthesize_root(self):
        synthesize(SQRT_SOURCE, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}), trace=True,
        ))
        records = obs.tracer().records()
        (root,) = [r for r in records if r.parent is None]
        assert root.name == "synthesize"
        for record in records:
            if record.name in obs.CORE_STAGES:
                assert record.depth >= 1

    def test_options_trace_is_scoped_to_the_run(self):
        synthesize(SQRT_SOURCE, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}), trace=True,
        ))
        assert not obs.tracing_enabled()
        before = len(obs.tracer().records())
        synthesize(SQRT_SOURCE, options=TWO_FU)
        assert len(obs.tracer().records()) == before

    def test_trace_flag_does_not_fork_cache_entries(self):
        traced = SynthesisOptions(trace=True)
        untraced = SynthesisOptions()
        assert traced.cache_key() == untraced.cache_key()

    def test_transform_passes_traced(self):
        synthesize(SQRT_SOURCE, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}), trace=True,
        ))
        records = obs.tracer().records()
        passes = [r for r in records if r.name.startswith("pass.")]
        assert passes
        (transforms,) = [r for r in records if r.name == "transforms"]
        assert all(p.parent == transforms.index for p in passes)

    def test_verify_contracts_traced(self):
        synthesize(SQRT_SOURCE, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}),
            trace=True, verify=True,
        ))
        names = [r.name for r in obs.tracer().records()]
        for stage in ("scheduling", "allocation", "binding",
                      "controller", "netlist"):
            assert f"contract.{stage}" in names

    def test_scheduler_metrics_recorded(self):
        synthesize(SQRT_SOURCE, options=TWO_FU)
        counters = obs.metrics().counters()
        assert counters["scheduler.invocations{scheduler=list}"] == 2
        assert counters["allocator.invocations{allocator=left-edge}"] == 2
        hist = obs.metrics().histograms()[
            "scheduler.latency_ms{scheduler=list}"
        ]
        assert hist.count == 2 and hist.total > 0.0


class TestCacheMetrics:
    def test_stats_exposes_evictions_and_sizes(self):
        cache = SynthesisCache(max_entries=2)
        design = object.__new__(SynthesizedDesign)
        cache.put(("a",), design)
        cache.put(("b",), design)
        assert cache.get(("a",)) is design
        assert cache.get(("nope",)) is None
        cache.put(("c",), design)  # evicts ("b",), the LRU entry
        stats = cache.stats()
        assert stats == {
            "entries": 2, "max_entries": 2,
            "hits": 1, "misses": 1, "evictions": 1,
        }
        assert cache.get(("b",)) is None

    def test_stats_backed_by_global_registry(self):
        cache = synthesis_cache()
        synthesize(SQRT_SOURCE, options=TWO_FU, use_cache=True)
        synthesize(SQRT_SOURCE, options=TWO_FU, use_cache=True)
        counters = obs.metrics().counters()
        assert counters["cache.misses"] == cache.stats()["misses"] == 1
        assert counters["cache.hits"] == cache.stats()["hits"] == 1
        assert obs.metrics().gauges()["cache.entries"] == 1.0

    def test_clear_resets_counters(self):
        cache = synthesis_cache()
        synthesize(SQRT_SOURCE, options=TWO_FU, use_cache=True)
        cache.clear()
        assert cache.stats()["misses"] == 0
        assert obs.metrics().counters()["cache.misses"] == 0


class TestChromeExport:
    def _traced_records(self):
        synthesize(SQRT_SOURCE, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}), trace=True,
        ))
        return obs.tracer().records()

    def test_export_is_valid_chrome_trace_json(self, tmp_path):
        records = self._traced_records()
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path), records)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(records)
        for event in complete:
            assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)

    def test_export_preserves_stage_names_and_nesting_times(self):
        records = self._traced_records()
        doc = obs.chrome_trace(records)
        events = {(e["name"], e["ts"]): e
                  for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"compile", "transforms", "schedule", "allocate",
                "bind", "controller"} <= {n for n, _ in events}
        by_index = {r.index: r for r in records}
        for record in records:
            if record.parent is None:
                continue
            parent = by_index[record.parent]
            # child lies within its parent's [ts, ts+dur] window
            assert parent.start_us <= record.start_us
            assert (record.start_us + record.duration_us
                    <= parent.start_us + parent.duration_us + 0.001)

    def test_non_json_attrs_are_stringified(self):
        with obs.tracing():
            with obs.trace_span("s", obj=ResourceConstraints({"fu": 1})):
                pass
        doc = obs.chrome_trace(obs.tracer().records())
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert isinstance(event["args"]["obj"], str)
        json.dumps(doc)  # whole document stays serializable


class TestProfileReport:
    def test_profile_table_structure(self):
        synthesize(SQRT_SOURCE, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}), trace=True,
        ))
        table = obs.profile_table(obs.tracer().records(),
                                  title="pipeline profile of 'sqrt':")
        lines = table.splitlines()
        assert lines[0] == "pipeline profile of 'sqrt':"
        assert lines[1].split() == ["stage", "calls", "time(ms)",
                                    "share"]
        stages = [line.split()[0] for line in lines[2:]]
        assert stages[:3] == ["compile", "transforms", "schedule"]
        assert stages[-2:] == ["other", "total"]
        assert lines[-1].rstrip().endswith("100.0%")

    def test_stage_totals_sums_calls(self):
        synthesize(SQRT_SOURCE, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}), trace=True,
        ))
        totals = obs.stage_totals(obs.tracer().records())
        assert totals["schedule"]["calls"] == 2
        assert totals["compile"]["calls"] == 1
        assert totals["schedule"]["total_us"] > 0.0


class TestSweepTelemetry:
    def test_report_flag_collects_counter_deltas(self):
        result = explore_fu_range(SQRT_SOURCE, [1, 2], report=True)
        assert result.telemetry is not None
        counters = result.telemetry["counters"]
        assert counters["dse.points.evaluated"] == 2
        assert result.telemetry["wall_s"] > 0.0
        assert "sweep telemetry:" in result.table()

    def test_no_report_no_telemetry(self):
        result = explore_fu_range(SQRT_SOURCE, [1, 2])
        assert result.telemetry is None
        assert "sweep telemetry:" not in result.table()

    def test_fuzz_counters(self, tmp_path):
        from repro.verify import fuzz_corpus

        fuzz_corpus(None, seeds=[1, 2], budget=0, ops=6,
                    artifacts_dir=str(tmp_path / "artifacts"))
        counters = obs.metrics().counters()
        assert counters["fuzz.corpus.cases"] == 70
        # reset() keeps registered keys alive at zero, so check the
        # value rather than key absence
        assert counters.get("fuzz.corpus.failing", 0) == 0
        assert counters.get("fuzz.corpus.mutations", 0) == 0

    def test_fuzz_cases_leave_the_tracer_as_they_found_it(self):
        """A case records spans for its coverage and drops them again
        unless tracing was already on; the fingerprints agree."""
        from repro.verify import evaluate_case, seed_case

        cases = [seed_case(seed, ops=6) for seed in range(1, 5)]
        mark = len(obs.tracer())
        untraced = [evaluate_case(case).fingerprint for case in cases]
        assert len(obs.tracer()) == mark
        with obs.tracing():
            traced = [evaluate_case(case).fingerprint for case in cases]
        assert len(obs.tracer()) > mark
        assert traced == untraced


class TestHistogramPercentiles:
    def _hist(self, boundaries=(10.0,)):
        from repro.obs.metrics import Histogram

        return Histogram(boundaries=boundaries)

    def test_empty_histogram_percentiles_are_zero(self):
        hist = self._hist()
        assert hist.p50 == 0.0
        assert hist.p95 == 0.0
        assert hist.p99 == 0.0

    def test_linear_interpolation_within_a_bucket(self):
        hist = self._hist(boundaries=(10.0,))
        for _ in range(10):
            hist.observe(1.0)  # all land in [0, 10]
        assert hist.p50 == pytest.approx(5.0)
        assert hist.p95 == pytest.approx(9.5)
        assert hist.p99 == pytest.approx(9.9)

    def test_interpolation_uses_previous_boundary_as_lower_edge(self):
        hist = self._hist(boundaries=(1.0, 2.0, 4.0))
        hist.observe(0.5)   # bucket [0, 1]
        hist.observe(1.5)   # bucket (1, 2]
        hist.observe(3.0)   # bucket (2, 4]
        hist.observe(3.5)   # bucket (2, 4]
        # rank 2 falls exactly at the end of the (1, 2] bucket
        assert hist.p50 == pytest.approx(2.0)

    def test_overflow_bucket_returns_last_boundary(self):
        hist = self._hist(boundaries=(10.0,))
        hist.observe(1000.0)
        assert hist.p99 == 10.0

    def test_summary_is_plain_data(self):
        hist = self._hist()
        hist.observe(2.0)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["mean"] == 2.0
        assert set(summary) == {"count", "mean", "p50", "p95", "p99"}

    def test_sweep_telemetry_includes_histograms(self):
        result = explore_fu_range(SQRT_SOURCE, [1, 2], report=True)
        histograms = result.telemetry["histograms"]
        assert any("scheduler.latency_ms" in key for key in histograms)
        for summary in histograms.values():
            assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert "p50=" in result.table()


class TestChromeTraceEdgeCases:
    def test_empty_records_yield_valid_empty_document(self):
        doc = obs.chrome_trace([])
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}
        json.dumps(doc)

    def test_zero_duration_spans_are_clamped_to_one_us(self):
        from repro.obs.export import MIN_EVENT_DURATION_US
        from repro.obs.tracer import SpanRecord

        record = SpanRecord(name="instant", index=0, parent=None,
                            depth=0, start_us=5.0, duration_us=0.0)
        doc = obs.chrome_trace([record])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["dur"] == MIN_EVENT_DURATION_US

    def test_real_durations_are_not_clamped(self):
        from repro.obs.tracer import SpanRecord

        record = SpanRecord(name="long", index=0, parent=None,
                            depth=0, start_us=0.0, duration_us=42.5)
        doc = obs.chrome_trace([record])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["dur"] == 42.5

    def test_metadata_rows_only_for_present_pids(self):
        from repro.obs.tracer import SpanRecord

        records = [
            SpanRecord(name="a", index=0, parent=None, depth=0,
                       start_us=0.0, duration_us=1.0, pid=11),
            SpanRecord(name="b", index=1, parent=None, depth=0,
                       start_us=0.0, duration_us=1.0, pid=22),
        ]
        doc = obs.chrome_trace(records)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert sorted(e["pid"] for e in meta) == [11, 22]


class TestMemoryProfiling:
    def test_off_by_default_and_no_gauges(self):
        assert not obs.memory_enabled()
        with obs.memory_span("schedule"):
            pass
        assert "engine.mem.peak_kb{stage=schedule}" not in (
            obs.metrics().gauges()
        )

    def test_memory_span_records_peak_gauge(self):
        with obs.memory_profiling(True):
            with obs.memory_span("schedule"):
                blob = [list(range(1000)) for _ in range(100)]
            del blob
        gauges = obs.metrics().gauges()
        assert gauges["engine.mem.peak_kb{stage=schedule}"] > 0.0

    def test_engine_memory_option_populates_stage_gauges(self):
        synthesize(SQRT_SOURCE, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}), memory=True,
        ))
        gauges = obs.metrics().gauges()
        stages = {key for key in gauges
                  if key.startswith("engine.mem.peak_kb")}
        assert "engine.mem.peak_kb{stage=compile}" in stages
        assert "engine.mem.peak_kb{stage=schedule}" in stages

    def test_memory_option_does_not_change_cache_key(self):
        plain = SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}))
        with_memory = SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}), memory=True)
        assert plain.cache_key() == with_memory.cache_key()

    def test_nested_memory_profiling_is_reentrant(self):
        with obs.memory_profiling(True):
            with obs.maybe_memory(True):
                assert obs.memory_enabled()
            assert obs.memory_enabled()
        assert not obs.memory_enabled()


class TestExecPoolGauges:
    def test_pool_gauges_recorded_for_a_batch(self):
        from repro.exec import run_tasks
        from tests.test_exec_runtime import double

        run_tasks(double, [1, 2, 3, 4], max_workers=2)
        gauges = obs.metrics().gauges()
        assert gauges["exec.pool.workers"] == 2
        assert 0.0 < gauges["exec.pool.utilization"] <= 1.0
        assert gauges["exec.queue.wait_s"] >= 0.0
