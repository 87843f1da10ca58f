"""Differential engine: the full combo matrix agrees on real and random
workloads, paired code paths agree stage-for-stage, and injected bugs
are localized to the right stage.
"""

import pytest

from repro.core.engine import ALLOCATORS, SCHEDULERS
from repro.errors import SchedulingError
from repro.scheduling import ListScheduler
from repro.verify import (
    check_all_paths,
    check_cached_paths,
    check_parallel_paths,
    first_diverging_stage,
    run_differential,
)
from repro.workloads import (
    DIFFEQ_SOURCE,
    RandomDFGSpec,
    SQRT_SOURCE,
    random_dfg,
    sqrt_cdfg,
)


class TestFullMatrix:
    def test_sqrt_all_combos_agree(self):
        report = run_differential(SQRT_SOURCE)
        assert report.ok, report.render()
        assert len(report.combos) == len(SCHEDULERS) * len(ALLOCATORS)

    def test_diffeq_subset_agrees(self):
        report = run_differential(
            DIFFEQ_SOURCE,
            schedulers=["list", "force-directed"],
            allocators=["left-edge", "clique"],
        )
        assert report.ok, report.render()

    def test_report_render_lists_every_combo(self):
        report = run_differential(
            sqrt_cdfg, schedulers=["asap"], allocators=["left-edge"]
        )
        text = report.render()
        assert "PASS" in text
        assert "asap x left-edge" in text

    @pytest.mark.fuzz_smoke
    def test_random_dfg_matrix_no_divergence(self):
        """Acceptance: 25 fixed seeds through the full matrix."""
        for seed in range(1, 26):
            spec = RandomDFGSpec(ops=10, seed=seed)
            report = run_differential(
                lambda: random_dfg(spec), label=f"seed{seed}"
            )
            assert report.ok, report.render()


class TestPairedPaths:
    def test_cached_matches_uncached(self):
        result = check_cached_paths(SQRT_SOURCE)
        assert result.ok, result.render()

    def test_serial_matches_parallel(self):
        result = check_parallel_paths(SQRT_SOURCE, limits=(1, 2))
        assert result.ok, result.render()

    def test_check_all_paths(self):
        results = check_all_paths(SQRT_SOURCE, limits=(1, 2))
        assert [r.name for r in results] == [
            "cached-vs-uncached",
            "serial-vs-parallel",
        ]
        assert all(r.ok for r in results)

    def test_first_diverging_stage_names_scheduling(self):
        from repro.core import synthesize

        left = synthesize(SQRT_SOURCE, use_cache=False)
        right = synthesize(SQRT_SOURCE, use_cache=False)
        assert first_diverging_stage(left, right) is None
        schedule = next(iter(right.schedules.values()))
        op_id = next(iter(schedule.start))
        schedule.start[op_id] += 7
        divergence = first_diverging_stage(left, right)
        assert divergence is not None
        assert divergence[0] == "scheduling"


class TestInjectedBugs:
    def test_raising_scheduler_localized_to_scheduling(self, monkeypatch):
        class CrashingScheduler(ListScheduler):
            def schedule(self):
                raise SchedulingError("injected")

        monkeypatch.setitem(SCHEDULERS, "crashing", CrashingScheduler)
        report = run_differential(
            sqrt_cdfg, schedulers=["crashing"],
            allocators=["left-edge"],
        )
        assert not report.ok
        combo = report.failures()[0]
        assert combo.status == "error"
        assert combo.stage == "scheduling"
        assert "injected" in combo.diff["error"]

    def test_contract_violation_localized(self, monkeypatch):
        from repro.scheduling.base import Schedule

        class LyingScheduler(ListScheduler):
            def schedule(self):
                result = super().schedule()
                for op_id in result.start:
                    result.start[op_id] = 0
                return result

        monkeypatch.setitem(SCHEDULERS, "lying", LyingScheduler)
        monkeypatch.setattr(Schedule, "validate", lambda self: None)
        report = run_differential(
            sqrt_cdfg, schedulers=["lying"], allocators=["left-edge"]
        )
        assert not report.ok
        combo = report.failures()[0]
        assert combo.status in ("violations", "error")
        if combo.status == "violations":
            assert combo.stage == "scheduling"
            assert {v.kind for v in combo.violations} >= {"precedence"}

    def test_rtl_divergence_localized(self, monkeypatch):
        import repro.verify.differential as differential

        real_simulator = differential.RTLSimulator

        class WrongSim:
            def __init__(self, design):
                self._real = real_simulator(design)

            def run(self, inputs):
                outputs = self._real.run(inputs)
                return {
                    name: value + 1 for name, value in outputs.items()
                }

        monkeypatch.setattr(differential, "RTLSimulator", WrongSim)
        report = run_differential(
            sqrt_cdfg, schedulers=["list"], allocators=["left-edge"]
        )
        assert not report.ok
        combo = report.failures()[0]
        assert combo.status == "divergence"
        assert combo.stage == "rtl"
        assert combo.diff["expected"] != combo.diff["actual"]
