"""Directive-space DSE funnel, the QoR estimator, and the
measurement-contract bugfix sweep.

Covers the tentpole (:func:`repro.explore.explore_directives` and
:mod:`repro.estimation.qor`) and pins the three satellite bugfixes:
the assume contract forwarded into sweep measurement vectors, range
narrowing hoisted out of the per-point loop, and zero-trip pre-test
loops unrolling to an empty sequence.
"""

import pytest

from repro.core import clear_synthesis_cache, synthesize
from repro.core.engine import ScheduleMemo, SynthesisOptions, synthesize_cdfg
from repro.estimation import QoRModel
from repro.explore import (
    DirectiveConfig,
    DirectivePoint,
    default_directive_space,
    explore_directives,
    explore_fu_range,
    search_for_latency,
)
from repro.explore.dse import _PointBuilder, measure_cycles
from repro.errors import HLSError
from repro.lang import compile_source
from repro.obs import ledger as run_ledger
from repro.obs import metrics
from repro.obs.regression import compare
from repro.rtl import emit_verilog
from repro.scheduling import ResourceConstraints, Schedule
from repro.sim.equivalence import check_behavioral_equivalence
from repro.transforms import LoopUnrolling, clone_cdfg, optimize
from repro.verify import run_differential
from repro.workloads import (
    DIFFEQ_SOURCE,
    SQRT_SOURCE,
    diffeq_inputs,
    fir_source,
)

#: In-contract vectors that actually run diffeq's integration loop —
#: the default corner vectors all start at ``x0 == a``, so the loop
#: body never executes and every directive looks latency-identical.
DIFFEQ_VECTORS = [diffeq_inputs(steps) for steps in (2, 4, 8)]


def rows(points):
    return [
        (str(p.constraints), p.area, p.cycles, p.clock_ns)
        for p in points
    ]


# ----------------------------------------------------------------------
# QoR estimator.


class TestQoREstimator:
    @pytest.mark.parametrize("name,source", [
        ("sqrt", SQRT_SOURCE),
        ("diffeq", DIFFEQ_SOURCE),
        ("fir4", fir_source(4)),
    ])
    @pytest.mark.parametrize("tree_height", [False, True])
    @pytest.mark.parametrize("limit", [1, 2, None])
    def test_lower_bound_is_admissible(self, name, source,
                                       tree_height, limit):
        """``latency_lb_csteps`` never exceeds the measured cycles of
        the synthesized design — the bound is sound."""
        constraints = (
            ResourceConstraints({"fu": limit}) if limit else None
        )
        options = SynthesisOptions(tree_height=tree_height,
                                   constraints=constraints)
        cdfg = compile_source(source)
        optimize(cdfg, tree_height=tree_height)
        estimate = QoRModel(cdfg).estimate(constraints)

        design = synthesize(source, options=options)
        vectors = DIFFEQ_VECTORS if name == "diffeq" else None
        cycles = measure_cycles(design, vectors)
        assert estimate.latency_lb_csteps <= cycles
        assert estimate.latency_csteps >= estimate.latency_lb_csteps
        assert estimate.area > 0
        assert estimate.clock_ns > 0

    def test_resource_bound_tightens_with_limit(self):
        cdfg = compile_source(DIFFEQ_SOURCE)
        optimize(cdfg)
        model = QoRModel(cdfg)
        tight = model.estimate(ResourceConstraints({"fu": 1}))
        loose = model.estimate(ResourceConstraints({"fu": 4}))
        assert tight.latency_lb_csteps >= loose.latency_lb_csteps
        assert tight.latency_csteps > loose.latency_csteps
        assert tight.area < loose.area

    def test_equal_estimates_never_dominate(self):
        cdfg = compile_source(SQRT_SOURCE)
        optimize(cdfg)
        estimate = QoRModel(cdfg).estimate(None)
        assert not estimate.dominates(estimate)
        assert not estimate.dominates(estimate, margin=0.5)


# ----------------------------------------------------------------------
# The funnel.


class TestDirectiveFunnel:
    def test_prunes_and_expands_front(self):
        limits = [1, 2, 3]
        configs = default_directive_space()
        baseline = explore_fu_range(DIFFEQ_SOURCE, limits,
                                    vectors=DIFFEQ_VECTORS,
                                    use_cache=False)
        clear_synthesis_cache()
        result = explore_directives(DIFFEQ_SOURCE, limits,
                                    configs=configs,
                                    vectors=DIFFEQ_VECTORS,
                                    use_cache=False)

        funnel = result.funnel
        assert funnel["exhaustive"] == len(configs) * len(limits)
        # The acceptance ratio: at least 2x fewer full evaluations
        # than the exhaustive cross-product.
        assert funnel["configs_evaluated"] * 2 <= funnel["exhaustive"]
        assert funnel["configs_pruned"] > 0
        # diffeq has no constant-trip loops and no ifs, so unroll and
        # if-conversion are no-ops — exact dedup must catch them.
        assert funnel["duplicates_pruned"] > 0
        assert (funnel["configs_evaluated"] + funnel["configs_pruned"]
                == funnel["exhaustive"])

        # Front expansion: at least one directive point no FU-only
        # point dominates.
        base_front = [(p.area, p.latency_ns) for p in baseline.pareto]
        new = [
            p for p in result.pareto
            if not any(a <= p.area and l <= p.latency_ns
                       for a, l in base_front)
        ]
        assert new, "directive sweep expanded no Pareto point"
        assert all(isinstance(p, DirectivePoint) for p in result.points)
        assert "funnel:" in result.table()

    def test_plain_cells_match_fu_sweep(self):
        """Wherever the funnel kept the no-directive/list/left-edge
        configuration, its measurements equal the plain FU sweep's."""
        limits = [1, 2]
        baseline = explore_fu_range(DIFFEQ_SOURCE, limits,
                                    vectors=DIFFEQ_VECTORS,
                                    use_cache=False)
        clear_synthesis_cache()
        result = explore_directives(DIFFEQ_SOURCE, limits,
                                    vectors=DIFFEQ_VECTORS,
                                    use_cache=False)
        plain = {
            str(p.constraints): (p.area, p.cycles, p.clock_ns)
            for p in result.points
            if p.config == DirectiveConfig()
        }
        assert plain, "the plain configuration was pruned entirely"
        for point in baseline.points:
            key = str(point.constraints)
            if key in plain:
                assert plain[key] == (point.area, point.cycles,
                                      point.clock_ns)

    def test_parallel_matches_serial(self):
        limits = [1, 2]
        serial = explore_directives(DIFFEQ_SOURCE, limits,
                                    vectors=DIFFEQ_VECTORS,
                                    use_cache=False)
        clear_synthesis_cache()
        jobbed = explore_directives(DIFFEQ_SOURCE, limits,
                                    vectors=DIFFEQ_VECTORS,
                                    n_jobs=2, use_cache=False)
        serial_rows = sorted(
            (p.config.label(), *row)
            for p, row in zip(serial.points, rows(serial.points))
        )
        jobbed_rows = sorted(
            (p.config.label(), *row)
            for p, row in zip(jobbed.points, rows(jobbed.points))
        )
        assert jobbed_rows == serial_rows

    def test_rejects_factories_and_unknown_schedulers(self):
        with pytest.raises(HLSError):
            explore_directives(lambda: compile_source(SQRT_SOURCE),
                               [1])
        with pytest.raises(HLSError):
            explore_directives(
                SQRT_SOURCE, [1],
                configs=[DirectiveConfig(scheduler="no-such")],
            )

    def test_metrics_and_ledger_record(self, tmp_path):
        before = metrics().snapshot()["counters"]
        ledger = run_ledger.configure_ledger(tmp_path / "ledger")
        try:
            result = explore_directives(DIFFEQ_SOURCE, [1, 2],
                                        vectors=DIFFEQ_VECTORS,
                                        use_cache=False)
        finally:
            run_ledger.reset_ledger()
        after = metrics().snapshot()["counters"]
        funnel = result.funnel
        assert (after.get("dse.configs.pruned", 0)
                - before.get("dse.configs.pruned", 0)
                == funnel["configs_pruned"])
        assert (after.get("dse.configs.evaluated", 0)
                - before.get("dse.configs.evaluated", 0)
                == funnel["configs_evaluated"])

        records = ledger.records()
        assert len(records) == 1
        record = records[0]
        assert record.kind == "explore-directives"
        assert record.extra["configs_pruned"] == funnel["configs_pruned"]
        assert (record.extra["configs_evaluated"]
                == funnel["configs_evaluated"])
        assert record.extra["exhaustive"] == funnel["exhaustive"]
        assert all("config" in p for p in record.extra["points"])

    def test_prune_margin_keeps_near_dominated_cells(self):
        strict = explore_directives(DIFFEQ_SOURCE, [1, 2, 3],
                                    vectors=DIFFEQ_VECTORS,
                                    use_cache=False)
        clear_synthesis_cache()
        lenient = explore_directives(DIFFEQ_SOURCE, [1, 2, 3],
                                     vectors=DIFFEQ_VECTORS,
                                     prune_margin=10.0,
                                     use_cache=False)
        assert (lenient.funnel["estimate_pruned"]
                <= strict.funnel["estimate_pruned"])
        assert (lenient.funnel["configs_evaluated"]
                >= strict.funnel["configs_evaluated"])


def _funnel(estimate_pruned, evaluated):
    return {
        "configs": 16, "limits": 3, "exhaustive": 48,
        "duplicates_pruned": 36, "estimate_pruned": estimate_pruned,
        "schedule_pruned": 0, "schedule_failed": 0,
        "configs_evaluated": evaluated,
        "configs_pruned": 36 + estimate_pruned,
    }


@pytest.mark.parametrize("source,schedules,funnel", [
    (SQRT_SOURCE, 18, _funnel(6, 6)),
    (DIFFEQ_SOURCE, 40, _funnel(2, 10)),
    (fir_source(8), 48, _funnel(6, 6)),
], ids=["sqrt", "diffeq", "fir8"])
def test_one_schedule_per_funnel_cell(monkeypatch, source, schedules,
                                      funnel):
    """Level 3 builds on the schedules level 2 made: every block of a
    surviving (template, limit, scheduler) cell is scheduled and
    validated once per sweep, not once per level, and the points are
    exactly what a from-scratch synthesis of each cell makes."""
    validated = []
    original = Schedule.validate

    def counted(schedule):
        validated.append(schedule)
        return original(schedule)

    monkeypatch.setattr(Schedule, "validate", counted)
    result = explore_directives(source, [1, 2, 3], use_cache=False)
    monkeypatch.undo()
    assert len(validated) == schedules
    assert result.funnel == funnel
    assert len(result.points) == funnel["configs_evaluated"]
    for point in result.points:
        options = point.config.apply(SynthesisOptions()).with_constraints(
            point.constraints
        )
        full = synthesize(source, options=options)
        assert point.design.stage_signatures() == full.stage_signatures()
        assert emit_verilog(point.design) == emit_verilog(full)


def test_schedule_memo_is_bound_to_its_cdfg():
    """Block ids are per CDFG, so a memo of another graph would hand
    out its problems and schedules: the engine refuses it."""
    memo = ScheduleMemo(compile_source(SQRT_SOURCE))
    with pytest.raises(HLSError, match="different CDFG"):
        synthesize_cdfg(compile_source(SQRT_SOURCE),
                        SynthesisOptions(optimize_ir=False), memo)


def test_directive_regression_families():
    """The ledger report warns when pruning degrades or full
    evaluations grow — never fails (the funnel is heuristic)."""
    older = run_ledger.build_record(
        "explore-directives", "diffeq",
        extra={"configs_pruned": 38, "configs_evaluated": 10},
    )
    newer = run_ledger.build_record(
        "explore-directives", "diffeq",
        extra={"configs_pruned": 20, "configs_evaluated": 20},
    )
    report = compare([older, newer])
    verdicts = {
        v.family: v.status
        for group in report.groups for v in group.verdicts
    }
    assert verdicts["dse_configs_pruned"] == "warn"
    assert verdicts["dse_configs_evaluated"] == "warn"
    assert report.exit_code == 1


def test_cli_explore_directives(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "diffeq.bsl"
    path.write_text(DIFFEQ_SOURCE)
    assert main([
        "explore", str(path), "--limits", "1,2", "--directives",
    ]) == 0
    out = capsys.readouterr().out
    assert "funnel:" in out
    assert "full evaluations" in out


# ----------------------------------------------------------------------
# Satellite bugfixes.


DIFFEQ_CONTRACT = (
    ("x0", 0.0, 1.0),
    ("y0", 0.0, 1.0),
    ("u0", 0.0, 1.0),
    ("dx", 0.0, 0.125),
    ("a", 0.0, 1.0),
)


class TestAssumeContractInSweeps:
    def test_builder_vectors_honor_contract(self):
        """Regression: ``_PointBuilder`` used to drop the assume
        contract when generating measurement vectors, so a narrowed
        sweep was measured on out-of-contract corner inputs."""
        options = SynthesisOptions(narrow=True,
                                   assume_ranges=DIFFEQ_CONTRACT)
        builder = _PointBuilder(DIFFEQ_SOURCE, "fu", options, None,
                                use_cache=False)
        builder.ensure_vectors()
        bounds = {name: (lo, hi) for name, lo, hi in DIFFEQ_CONTRACT}
        assert builder.vectors
        for vector in builder.vectors:
            for name, value in vector.items():
                lo, hi = bounds[name]
                assert lo <= value <= hi, (name, value)

    def test_ensure_vectors_keeps_explicit_vectors(self):
        builder = _PointBuilder(DIFFEQ_SOURCE, "fu",
                                SynthesisOptions(), DIFFEQ_VECTORS,
                                use_cache=False)
        builder.ensure_vectors()
        assert builder.vectors is DIFFEQ_VECTORS


def _per_point_row(source, options, limit, vectors):
    """One point the slow way: a full, uncached synthesis per limit."""
    from repro.estimation import estimate_area, estimate_timing

    clear_synthesis_cache()
    point_options = options.with_constraints({"fu": limit})
    design = synthesize(source, options=point_options, use_cache=False)
    cycles = measure_cycles(design, vectors)
    return (
        str(point_options.constraints),
        estimate_area(design).total,
        cycles,
        estimate_timing(design, cycles).clock_ns,
    )


class TestNarrowedSweepParity:
    def test_serial_parallel_and_per_point_agree(self):
        """The compile-once sweep, serial and fanned out, and the
        latency search must match a per-point full synthesis: plain
        sqrt and diffeq, and diffeq narrowed under its contract
        (narrowing used to re-run per point on the shared working
        CDFG)."""
        diffeq_vectors = [diffeq_inputs(2), diffeq_inputs(4)]
        cases = [
            (SQRT_SOURCE, SynthesisOptions(), [1, 2, 3], None),
            (DIFFEQ_SOURCE, SynthesisOptions(), [1, 2, 3, 4],
             diffeq_vectors),
            (DIFFEQ_SOURCE,
             SynthesisOptions(narrow=True, assume_ranges=DIFFEQ_CONTRACT),
             [1, 2], diffeq_vectors),
        ]
        for source, options, limits, vectors in cases:
            clear_synthesis_cache()
            serial = explore_fu_range(source, limits, options=options,
                                      vectors=vectors, use_cache=False)
            clear_synthesis_cache()
            jobbed = explore_fu_range(source, limits, options=options,
                                      vectors=vectors, n_jobs=2,
                                      use_cache=False)
            assert rows(jobbed.points) == rows(serial.points)
            expected = [
                _per_point_row(source, options, limit, vectors)
                for limit in limits
            ]
            assert rows(serial.points) == expected

        # Smallest unit count meeting 10 cycles: bisect over per-point
        # rows, as the search does over its compile-once points.
        low, high = 1, 8
        best = _per_point_row(SQRT_SOURCE, SynthesisOptions(), high, None)
        assert best[2] <= 10
        while low < high:
            middle = (low + high) // 2
            point = _per_point_row(SQRT_SOURCE, SynthesisOptions(), middle,
                                   None)
            if point[2] <= 10:
                best, high = point, middle
            else:
                low = middle + 1
        clear_synthesis_cache()
        found = search_for_latency(SQRT_SOURCE, 10, max_units=8,
                                   use_cache=False)
        assert rows([found]) == [best]


ZERO_TRIP_SOURCE = """
procedure zerotrip(input x: fixed<32,16>; output y: fixed<32,16>);
var acc: fixed<32,16>;
    i: uint<8>;
begin
  acc := x + 1.0;
  for i := 5 to 4 do
  begin
    acc := acc + 100.0;
  end;
  y := acc * 2.0;
end
"""


class TestZeroTripUnroll:
    def test_zero_trip_pre_test_loop_removed(self):
        """Regression: a provably-zero-trip loop used to survive
        unrolling as a full loop region."""
        cdfg = compile_source(ZERO_TRIP_SOURCE)
        before = clone_cdfg(cdfg)
        assert LoopUnrolling().run(cdfg)

        from repro.ir.cdfg import LoopRegion

        def loops(region):
            found = []
            stack = [region]
            while stack:
                node = stack.pop()
                if isinstance(node, LoopRegion):
                    found.append(node)
                for attr in ("items", "body", "then_region",
                             "else_region"):
                    child = getattr(node, attr, None)
                    if child is None:
                        continue
                    stack.extend(child if isinstance(child, list)
                                 else [child])
            return found

        assert not loops(cdfg.body)
        check_behavioral_equivalence(before, cdfg)

    def test_zero_trip_synthesis_matches_behavior(self):
        design = synthesize(
            ZERO_TRIP_SOURCE,
            options=SynthesisOptions(unroll=True),
        )
        from repro.sim.rtl_sim import RTLSimulator

        outputs = RTLSimulator(design).run({"x": 0.5})
        assert outputs["y"] == pytest.approx(3.0)


@pytest.mark.parametrize("source", [SQRT_SOURCE, DIFFEQ_SOURCE],
                         ids=["sqrt", "diffeq"])
@pytest.mark.parametrize("config", [
    DirectiveConfig(),
    DirectiveConfig(unroll=True),
    DirectiveConfig(tree_height=True,
                    scheduler="force-directed"),
    DirectiveConfig(if_conversion=True, scheduler="force-directed"),
    DirectiveConfig(tree_height=True, if_conversion=True),
], ids=lambda c: c.label() if isinstance(c, DirectiveConfig) else c)
def test_directive_grid_differentially_clean(source, config):
    """Every sampled directive configuration synthesizes designs that
    agree with the behavioral reference."""
    options = config.apply(SynthesisOptions(
        constraints=ResourceConstraints({"fu": 2})
    ))
    report = run_differential(
        source,
        schedulers=[config.scheduler],
        allocators=[config.allocator],
        options=options,
    )
    assert report.ok, report.render()


def test_unroll_dead_counter_needs_no_register():
    """Regression: the register-missing lint must use the same
    liveness-informed lifetime model as the allocator.

    Unrolling sqrt leaves ``I := I + 1`` bookkeeping in the loop-body
    copies; the counter is dead after full unrolling, so the allocator
    (correctly) gives the incremented value no register.  The lint used
    to compute lifetimes without live-out information, extend the value
    to end-of-block, and report a phantom ``register-missing``
    violation — failing differential verification at the seed for any
    unrolled sqrt configuration."""
    options = DirectiveConfig(unroll=True, tree_height=True).apply(
        SynthesisOptions(constraints=ResourceConstraints({"fu": 2}))
    )
    report = run_differential(SQRT_SOURCE, schedulers=["list"],
                              allocators=["left-edge"],
                              options=options)
    assert report.ok, report.render()
