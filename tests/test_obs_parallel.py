"""Observability across DSE worker processes.

Parallel exploration ships each worker's spans and metrics snapshot
back to the parent, which merges them in input order.  The contract
(see ``docs/observability.md``): the parent trace contains one
``dse.point`` child span per evaluated design point under the open
``dse.sweep`` span, and merged per-point counter totals equal a
serial sweep's exactly.
"""


from repro import obs
from repro.core import clear_synthesis_cache
from repro.explore import explore_fu_range
from repro.workloads import SQRT_SOURCE

LIMITS = [1, 2, 3]

#: Counters incremented once per design point (or per stage run inside
#: one).  Only these are worker-location independent: compile/optimize
#: run once per *worker process* rather than once per sweep, and each
#: worker looks designs up in its own synthesis cache, so their
#: counters legitimately differ between serial and parallel runs.
PER_POINT_COUNTERS = (
    "dse.points.evaluated",
    "scheduler.invocations{scheduler=list}",
    "allocator.invocations{allocator=left-edge}",
)


def _sweep_counters(n_jobs):
    clear_synthesis_cache()
    obs.reset_metrics()
    explore_fu_range(SQRT_SOURCE, LIMITS, n_jobs=n_jobs,
                     use_cache=False)
    return obs.metrics().counters()


def _point_spans(records):
    by_index = {r.index: r for r in records}
    sweeps = [r for r in records if r.name == "dse.sweep"]
    points = [r for r in records if r.name == "dse.point"]
    return by_index, sweeps, points


class TestParallelTraceMerge:
    def test_one_point_span_per_design_point(self):
        with obs.tracing():
            explore_fu_range(SQRT_SOURCE, LIMITS, n_jobs=2,
                             use_cache=False)
        by_index, sweeps, points = _point_spans(obs.tracer().records())
        assert len(sweeps) == 1
        assert len(points) == len(LIMITS)
        (sweep,) = sweeps
        for point in points:
            assert point.parent == sweep.index
            assert point.depth == sweep.depth + 1

    def test_point_spans_arrive_in_limit_order(self):
        with obs.tracing():
            explore_fu_range(SQRT_SOURCE, LIMITS, n_jobs=2,
                             use_cache=False)
        _, _, points = _point_spans(obs.tracer().records())
        assert [p.attrs["limit"] for p in points] == LIMITS

    def test_worker_stage_spans_nest_under_their_point(self):
        with obs.tracing():
            explore_fu_range(SQRT_SOURCE, LIMITS, n_jobs=2,
                             use_cache=False)
        records = obs.tracer().records()
        by_index, _, points = _point_spans(records)
        point_indices = {p.index for p in points}
        schedules = [r for r in records if r.name == "schedule"]
        # two blocks per sqrt synthesis, one synthesis per point
        assert len(schedules) == 2 * len(LIMITS)
        for span in schedules:
            ancestor = span
            while ancestor.parent is not None:
                ancestor = by_index[ancestor.parent]
                if ancestor.index in point_indices:
                    break
            assert ancestor.index in point_indices

    def test_merge_is_deterministic_across_runs(self):
        with obs.tracing():
            explore_fu_range(SQRT_SOURCE, LIMITS, n_jobs=2,
                             use_cache=False)
        first = [(r.name, r.parent, r.depth)
                 for r in obs.tracer().records()]
        obs.reset_tracing()
        with obs.tracing():
            explore_fu_range(SQRT_SOURCE, LIMITS, n_jobs=2,
                             use_cache=False)
        second = [(r.name, r.parent, r.depth)
                  for r in obs.tracer().records()]
        assert first == second


class TestParallelMetricsMerge:
    def test_per_point_counters_match_serial(self):
        serial = _sweep_counters(n_jobs=1)
        parallel = _sweep_counters(n_jobs=2)
        for key in PER_POINT_COUNTERS:
            assert parallel[key] == serial[key], key

    def test_evaluated_counter_equals_point_count(self):
        counters = _sweep_counters(n_jobs=2)
        assert counters["dse.points.evaluated"] == len(LIMITS)

    def test_scheduler_latency_histograms_merge(self):
        clear_synthesis_cache()
        obs.reset_metrics()
        explore_fu_range(SQRT_SOURCE, LIMITS, n_jobs=2,
                         use_cache=False)
        hist = obs.metrics().histograms()[
            "scheduler.latency_ms{scheduler=list}"
        ]
        # two blocks per point, every worker observation merged home
        assert hist.count == 2 * len(LIMITS)
        assert sum(hist.counts) == hist.count
        assert hist.total > 0.0

    def test_report_telemetry_includes_worker_counters(self):
        clear_synthesis_cache()
        result = explore_fu_range(SQRT_SOURCE, LIMITS, n_jobs=2,
                                  use_cache=False, report=True)
        counters = result.telemetry["counters"]
        assert counters["dse.points.evaluated"] == len(LIMITS)
        assert (counters["scheduler.invocations{scheduler=list}"]
                == 2 * len(LIMITS))
