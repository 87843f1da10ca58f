"""End-to-end fault tolerance of parallel exploration and fuzzing.

The acceptance contract of the ``repro.exec`` runtime, exercised
through the real public entry points with deterministic fault
injection (``docs/resilience.md``): a failure costs exactly the task
that failed — completed work is kept, never re-executed, and parallel
telemetry stays equal to serial telemetry for the tasks that
completed.
"""

import time

import pytest

from repro import obs
from repro.core import SynthesisOptions, clear_synthesis_cache
from repro.errors import TaskExecutionError
from repro.explore import (
    ParallelExplorer,
    explore_fu_range,
    search_for_latency,
)
from repro.explore.dse import _PointBuilder
from repro.verify import CorpusCase, fuzz_corpus
from repro.workloads import SQRT_SOURCE, RandomDFGSpec, dfg_recipe

pytestmark = pytest.mark.fault_smoke

LIMITS8 = [1, 2, 3, 4, 5, 6, 7, 8]


def rows(points):
    return [
        (str(p.constraints), p.area, p.cycles, p.clock_ns)
        for p in points
    ]


def counters():
    return obs.metrics().counters()


class TestExploreFaultTolerance:
    def test_sweep_survives_crash_and_hang(self, monkeypatch):
        """The issue's acceptance scenario: an 8-point sweep with one
        crashing and one hanging point still returns all 8 points,
        identical to a serial sweep, within the timeout budget."""
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "30")
        serial = explore_fu_range(SQRT_SOURCE, LIMITS8, use_cache=False)
        clear_synthesis_cache()
        obs.reset_metrics()

        options = SynthesisOptions(fault_spec="crash:2,hang:5")
        started = time.monotonic()
        with obs.tracing():
            result = explore_fu_range(
                SQRT_SOURCE, LIMITS8, options=options, n_jobs=4,
                use_cache=False, task_timeout_s=2.0,
            )
        elapsed = time.monotonic() - started

        assert result.failures == []
        assert rows(result.points) == rows(serial.points)
        # Bounded by the 2s budget + recovery, not the 30s hang.
        assert elapsed < 25.0

        got = counters()
        assert got["exec.tasks.crashed"] >= 1
        assert got["exec.tasks.timeout"] == 1
        assert got["exec.tasks.degraded"] >= 2  # crash + hang rebuilds
        assert got["exec.pool.respawns"] >= 1
        # Every point evaluated exactly once, worker or parent.
        assert got["dse.points.evaluated"] == len(LIMITS8)

        spans = obs.tracer().records()
        points = [r for r in spans if r.name == "dse.point"]
        assert len(points) == len(LIMITS8)
        assert any(r.name == "exec.serial_fallback" for r in spans)
        # Only the crasher and the hang fall back to the parent: the
        # healthy points the crash caught in flight are not charged.
        assert got["exec.tasks.degraded"] == 2
        fallbacks = {
            r.attrs["task"]: r.attrs["cause"]
            for r in spans if r.name == "exec.serial_fallback"
        }
        assert fallbacks == {"2": "crash", "5": "timeout"}

    def test_completed_points_survive_a_genuine_error(self):
        """Regression for the serial-fallback bug: one failing point
        out of 8 must not discard — or re-synthesize — the other 7."""
        options = SynthesisOptions(fault_spec="error:3")
        result = explore_fu_range(
            SQRT_SOURCE, LIMITS8, options=options, n_jobs=4,
            use_cache=False,
        )
        assert len(result.points) == 7
        assert [str(p.constraints) for p in result.points] == [
            f"fu={n}" for n in LIMITS8 if n != 3
        ]
        (failure,) = result.failures
        assert failure.kind == "error"
        assert failure.label == "3"
        assert "InjectedFault" in failure.message
        assert not result.ok
        assert failure.render() in result.table()

        got = counters()
        # The 7 healthy points synthesized exactly once each; the
        # failing point was never re-run (errors are final).
        assert got["dse.measurements.run"] == 7
        assert got["dse.points.evaluated"] == 7
        assert got.get("exec.tasks.retried", 0) == 0

    def test_parallel_counters_match_serial_for_healthy_points(self):
        serial = {}
        for n_jobs in (1, 4):
            clear_synthesis_cache()
            obs.reset_metrics()
            explore_fu_range(SQRT_SOURCE, LIMITS8, n_jobs=n_jobs,
                             use_cache=False)
            serial[n_jobs] = counters()
        # dse.measurements.run is deliberately absent: the serial
        # builder memoizes measurements across identical designs,
        # workers legitimately measure once per point.
        for key in ("dse.points.evaluated",
                    "scheduler.invocations{scheduler=list}",
                    "allocator.invocations{allocator=left-edge}"):
            assert serial[4][key] == serial[1][key], key

    def test_single_limit_short_circuits_the_pool(self):
        builder = _PointBuilder(SQRT_SOURCE, "fu", None, None)
        explorer = ParallelExplorer(max_workers=4)
        points, failures = explorer.build_points(builder, [2])
        assert len(points) == 1
        assert failures == []
        assert counters().get("exec.tasks.submitted", 0) == 0

    def test_unpicklable_factory_degrades_and_counts(self):
        from repro.lang import compile_source

        factory = lambda: compile_source(SQRT_SOURCE)  # noqa: E731
        result = explore_fu_range(factory, [1, 2, 3], n_jobs=4,
                                  use_cache=False)
        assert len(result.points) == 3
        assert result.failures == []
        assert counters()["exec.tasks.degraded"] == 3

    def test_latency_search_raises_on_probe_failure(self):
        """Bisection cannot use partial results, so permanent probe
        failures surface as one structured exception."""
        options = SynthesisOptions(fault_spec="error:*")
        with pytest.raises(TaskExecutionError, match="probe") as info:
            search_for_latency(SQRT_SOURCE, 10, max_units=8,
                               options=options, n_jobs=2,
                               use_cache=False)
        assert info.value.failures
        assert all(f.kind == "error" for f in info.value.failures)


class TestFuzzFaultTolerance:
    def test_crashed_seed_is_reported_not_retried(self, monkeypatch,
                                                  tmp_path):
        """A crashing case is a finding: reported under its key, never
        rerun in the parent, while every other case keeps its result.
        The crash breaks a 2-wide pool, yet only the crasher is
        charged."""
        crasher = CorpusCase(
            dfg_recipe(RandomDFGSpec(ops=8, inputs=3, seed=2)),
            "list", "left-edge",
        )
        monkeypatch.setenv("REPRO_FAULT", f"crash:{crasher.key}")

        report = fuzz_corpus(None, seeds=[1, 2, 3], budget=0, ops=8,
                             inputs=3, jobs=2, shrink=False,
                             artifacts_dir=str(tmp_path))
        assert not report.ok
        assert report.findings == []  # healthy cases found no bugs
        (crashed,) = report.task_failures
        assert crashed.label == crasher.key
        assert crashed.kind == "crash"
        rendered = report.render()
        assert "1 crashed" in rendered
        assert f"case {crasher.key}: worker crash" in rendered

        got = counters()
        assert got["fuzz.corpus.cases"] == report.cases - 1
        assert got["exec.tasks.crashed"] == 3  # 1 + max_retries
        assert got.get("exec.tasks.degraded", 0) == 0

    def test_serial_and_parallel_runs_agree(self, tmp_path):
        serial = fuzz_corpus(None, seeds=[1, 2], budget=0, ops=8,
                             inputs=3, jobs=1, shrink=False,
                             artifacts_dir=str(tmp_path))
        serial_cases = counters()["fuzz.corpus.cases"]
        obs.reset_metrics()
        parallel = fuzz_corpus(None, seeds=[1, 2], budget=0, ops=8,
                               inputs=3, jobs=2, shrink=False,
                               artifacts_dir=str(tmp_path))
        assert counters()["fuzz.corpus.cases"] == serial_cases == 70
        assert serial.task_failures == [] == parallel.task_failures
        assert ([f.case.key for f in parallel.findings]
                == [f.case.key for f in serial.findings])
        assert ([(e.key, e.fingerprint) for e in parallel.new_entries]
                == [(e.key, e.fingerprint) for e in serial.new_entries])
        assert parallel.ok == serial.ok
        assert parallel.render() == serial.render()
