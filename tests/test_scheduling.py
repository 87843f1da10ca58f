"""Tests for the scheduling substrate and all scheduler families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.ir import OpKind
from repro.scheduling import (
    ALAPScheduler,
    ASAPScheduler,
    BranchAndBoundScheduler,
    ExhaustiveScheduler,
    ForceDirectedScheduler,
    FreedomBasedScheduler,
    ListScheduler,
    ResourceConstraints,
    Schedule,
    SchedulingProblem,
    TypedFUModel,
    UniversalFUModel,
    YSCScheduler,
    compute_time_frames,
    dependence_offset,
    total_steps,
)
from repro.scheduling.force_directed import distribution_graph
from repro.transforms import optimize
from repro.workloads import (
    RandomDFGSpec,
    ewf_cdfg,
    fig3_cdfg,
    fig5_cdfg,
    random_dfg,
    sqrt_cdfg,
)

UNIT = TypedFUModel(single_cycle=True)


def problem_of(cdfg, model=UNIT, constraints=None, time_limit=None):
    return SchedulingProblem.from_block(
        cdfg.blocks()[0], model, constraints, time_limit
    )


class TestResourceConstraints:
    @pytest.mark.parametrize("count", [0, -1, 1.5, "2", True, None])
    def test_limit_below_one_or_not_an_integer_rejected(self, count):
        with pytest.raises(SchedulingError, match="'fu'") as raised:
            ResourceConstraints({"fu": count})
        assert repr(count) in str(raised.value)


class TestDependenceOffset:
    def test_compute_to_compute(self):
        assert dependence_offset(1, 1) == 1
        assert dependence_offset(2, 1) == 2

    def test_compute_to_free_chains(self):
        """A free consumer lives in its producer's final step."""
        assert dependence_offset(1, 0) == 0
        assert dependence_offset(3, 0) == 2

    def test_free_to_anything_same_step(self):
        assert dependence_offset(0, 1) == 0
        assert dependence_offset(0, 0) == 0


class TestScheduleChecker:
    def test_detects_dependence_violation(self):
        problem = problem_of(fig3_cdfg())
        schedule = ASAPScheduler(problem).schedule()
        # Corrupt: move the chain's final add before its producer.
        add_ops = [
            op.id for op in problem.ops if op.kind is OpKind.ADD
        ]
        schedule.start[add_ops[-1]] = 0
        with pytest.raises(SchedulingError):
            schedule.validate()

    def test_detects_resource_violation(self):
        problem = problem_of(
            fig3_cdfg(), constraints=ResourceConstraints({"mul": 1})
        )
        start = {op.id: 0 for op in problem.ops}
        # Both multiplies in step 0 with a 1-multiplier limit.
        schedule = Schedule(problem, start, scheduler="bogus")
        with pytest.raises(SchedulingError):
            schedule.validate()

    def test_detects_missing_op(self):
        problem = problem_of(fig3_cdfg())
        schedule = Schedule(problem, {}, scheduler="bogus")
        with pytest.raises(SchedulingError):
            schedule.validate()

    def test_time_limit_enforced(self):
        problem = problem_of(fig3_cdfg(), time_limit=1)
        schedule = ASAPScheduler(problem).schedule()
        with pytest.raises(SchedulingError):
            schedule.validate()

    def test_table_rendering(self):
        problem = problem_of(fig3_cdfg())
        schedule = ASAPScheduler(problem).schedule()
        text = schedule.table()
        assert "step 0" in text


class TestASAPALAP:
    def test_asap_unconstrained_is_dataflow_depth(self):
        problem = problem_of(fig3_cdfg())
        schedule = ASAPScheduler(problem).schedule()
        schedule.validate()
        assert schedule.length == 3  # mul -> add -> add

    def test_fig3_asap_suboptimal(self):
        """Fig. 3: the non-critical multiply blocks the critical one."""
        problem = problem_of(
            fig3_cdfg(),
            constraints=ResourceConstraints({"mul": 1, "add": 1}),
        )
        schedule = ASAPScheduler(problem).schedule()
        schedule.validate()
        assert schedule.length == 4

    def test_alap_respects_deadline(self):
        problem = problem_of(fig3_cdfg())
        schedule = ALAPScheduler(problem, deadline=5).schedule()
        schedule.validate()
        assert schedule.length <= 5
        # Sinks sit at the end under ALAP.
        add_ids = [op.id for op in problem.ops if op.kind is OpKind.ADD]
        assert schedule.end(add_ids[-1]) == 4

    def test_alap_infeasible_deadline(self):
        problem = problem_of(fig3_cdfg())
        with pytest.raises(SchedulingError):
            ALAPScheduler(problem, deadline=2).schedule()

    def test_time_frames(self):
        problem = problem_of(fig5_cdfg())
        frames = compute_time_frames(problem, 3)
        add_ids = [op.id for op in problem.ops if op.kind is OpKind.ADD]
        a1, a2, a3 = add_ids
        assert list(frames.frame(a1)) == [0]
        assert list(frames.frame(a2)) == [1]
        assert list(frames.frame(a3)) == [1, 2]
        assert frames.mobility(a3) == 1
        assert a1 in frames.critical_ops()


class TestListScheduler:
    def test_fig4_list_optimal(self):
        """Fig. 4: path-length priority recovers the 3-step optimum."""
        problem = problem_of(
            fig3_cdfg(),
            constraints=ResourceConstraints({"mul": 1, "add": 1}),
        )
        schedule = ListScheduler(problem, "path_length").schedule()
        schedule.validate()
        assert schedule.length == 3

    @pytest.mark.parametrize("priority", ["path_length", "urgency",
                                          "mobility"])
    def test_all_priorities_legal(self, priority):
        cdfg = ewf_cdfg()
        problem = problem_of(
            cdfg, constraints=ResourceConstraints({"add": 2, "mul": 1})
        )
        schedule = ListScheduler(problem, priority).schedule()
        schedule.validate()

    def test_respects_limits(self):
        problem = problem_of(
            ewf_cdfg(), constraints=ResourceConstraints({"add": 1,
                                                         "mul": 1})
        )
        schedule = ListScheduler(problem).schedule()
        schedule.validate()
        usage = schedule.resource_usage()
        assert usage["add"] == 1
        assert usage["mul"] == 1

    def test_multicycle_ops(self):
        model = TypedFUModel(delays={"mul": 3})
        problem = problem_of(
            ewf_cdfg(), model=model,
            constraints=ResourceConstraints({"add": 1, "mul": 1}),
        )
        schedule = ListScheduler(problem).schedule()
        schedule.validate()


class TestForceDirected:
    def test_fig5_distribution_graph(self):
        """Fig. 5's add distribution graph is exactly [1, 1.5, 0.5]."""
        problem = problem_of(fig5_cdfg())
        frames = compute_time_frames(problem, 3)
        assert distribution_graph(problem, frames, "add") == [1.0, 1.5, 0.5]

    def test_fig5_balances_a3_into_last_step(self):
        problem = problem_of(fig5_cdfg(), time_limit=3)
        scheduler = ForceDirectedScheduler(problem, deadline=3)
        schedule = scheduler.schedule()
        schedule.validate()
        add_ids = [op.id for op in problem.ops if op.kind is OpKind.ADD]
        a3 = add_ids[2]
        assert schedule.start[a3] == 2
        assert schedule.resource_usage()["add"] == 1

    def test_minimizes_fus_vs_asap(self):
        """Time-constrained FDS should never need more adders than the
        naive dataflow schedule at the same deadline."""
        problem = problem_of(ewf_cdfg())
        asap = ASAPScheduler(problem).schedule()
        deadline = asap.length
        fds = ForceDirectedScheduler(problem, deadline=deadline).schedule()
        fds.validate()
        assert fds.length <= deadline
        assert (
            fds.resource_usage()["add"]
            <= asap.resource_usage()["add"]
        )

    def test_infeasible_deadline_raises(self):
        problem = problem_of(fig3_cdfg())
        with pytest.raises(SchedulingError):
            ForceDirectedScheduler(problem, deadline=2).schedule()


class TestFreedomBased:
    def test_produces_fu_assignment(self):
        problem = problem_of(fig5_cdfg())
        scheduler = FreedomBasedScheduler(problem, deadline=3)
        schedule = scheduler.schedule()
        schedule.validate()
        assert scheduler.fu_assignment
        # Every resource op assigned; classes consistent.
        for op_id, (cls, _) in scheduler.fu_assignment.items():
            assert problem.op_class(op_id) == cls

    def test_no_overlap_on_shared_units(self):
        problem = problem_of(ewf_cdfg())
        scheduler = FreedomBasedScheduler(problem)
        schedule = scheduler.schedule()
        schedule.validate()
        by_unit = {}
        for op_id, unit in scheduler.fu_assignment.items():
            by_unit.setdefault(unit, []).append(op_id)
        for op_ids in by_unit.values():
            spans = sorted(
                (schedule.start[i], schedule.end(i)) for i in op_ids
            )
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 > e1

    def test_respects_unit_caps_by_stretching(self):
        problem = problem_of(
            ewf_cdfg(), constraints=ResourceConstraints({"add": 1,
                                                         "mul": 1})
        )
        scheduler = FreedomBasedScheduler(problem)
        schedule = scheduler.schedule()
        schedule.validate()
        assert schedule.resource_usage()["add"] == 1


class TestTransformational:
    def test_bnb_optimal_on_fig3(self):
        problem = problem_of(
            fig3_cdfg(),
            constraints=ResourceConstraints({"mul": 1, "add": 1}),
        )
        schedule = BranchAndBoundScheduler(problem).schedule()
        schedule.validate()
        assert schedule.length == 3

    def test_exhaustive_matches_bnb(self):
        problem = problem_of(
            fig3_cdfg(),
            constraints=ResourceConstraints({"mul": 1, "add": 1}),
        )
        exhaustive = ExhaustiveScheduler(problem).schedule()
        bnb = BranchAndBoundScheduler(problem).schedule()
        assert exhaustive.length == bnb.length

    def test_pruning_visits_fewer_states(self):
        """The paper's cost argument: exhaustive search explores far
        more of the space than branch-and-bound."""
        problem = problem_of(
            fig5_cdfg(), constraints=ResourceConstraints({"add": 1,
                                                          "mul": 2})
        )
        exhaustive = ExhaustiveScheduler(problem)
        exhaustive.schedule()
        bnb = BranchAndBoundScheduler(problem)
        bnb.schedule()
        assert bnb.states_visited <= exhaustive.states_visited

    def test_size_cap(self):
        with pytest.raises(SchedulingError):
            BranchAndBoundScheduler(problem_of(ewf_cdfg()), max_ops=10)

    def test_bnb_never_worse_than_list(self):
        for seed in (1, 2, 3):
            cdfg = random_dfg(RandomDFGSpec(ops=10, seed=seed))
            problem = problem_of(
                cdfg, constraints=ResourceConstraints({"add": 1,
                                                       "mul": 1})
            )
            lst = ListScheduler(problem).schedule()
            bnb = BranchAndBoundScheduler(problem).schedule()
            bnb.validate()
            assert bnb.length <= lst.length

    def test_ysc_feasible(self):
        problem = problem_of(
            ewf_cdfg(), constraints=ResourceConstraints({"add": 2,
                                                         "mul": 1})
        )
        schedule = YSCScheduler(problem).schedule()
        schedule.validate()

    def test_ysc_unconstrained_is_asap(self):
        problem = problem_of(fig3_cdfg())
        ysc = YSCScheduler(problem).schedule()
        asap = ASAPScheduler(problem).schedule()
        assert ysc.start == asap.start


class TestSchedulerProperties:
    """Cross-scheduler invariants on random DFGs (hypothesis)."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(1, 10_000), ops=st.integers(5, 30),
           adders=st.integers(1, 3), muls=st.integers(1, 3))
    def test_all_schedulers_produce_legal_schedules(
        self, seed, ops, adders, muls
    ):
        cdfg = random_dfg(RandomDFGSpec(ops=ops, seed=seed))
        constraints = ResourceConstraints({"add": adders, "mul": muls})
        problem = problem_of(cdfg, constraints=constraints)
        for factory in (
            ASAPScheduler,
            ListScheduler,
            YSCScheduler,
        ):
            factory(problem).schedule().validate()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(1, 10_000), ops=st.integers(5, 20))
    def test_list_and_asap_bounded_with_tight_resources(
        self, seed, ops
    ):
        cdfg = random_dfg(RandomDFGSpec(ops=ops, seed=seed))
        constraints = ResourceConstraints({"add": 1, "mul": 1})
        problem = problem_of(cdfg, constraints=constraints)
        asap = ASAPScheduler(problem).schedule()
        lst = ListScheduler(problem).schedule()
        # Neither greedy order dominates pointwise (seed 4994 / 9 ops:
        # the priority list takes 6 steps where fixed-order ASAP takes
        # 5), so pin the bounds both must satisfy: legal, at least the
        # unconstrained critical path, at most fully serial.
        critical_path = ASAPScheduler(problem_of(cdfg)).schedule().length
        for schedule in (asap, lst):
            schedule.validate()
            assert critical_path <= schedule.length <= len(problem.ops)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(1, 10_000), ops=st.integers(5, 25))
    def test_fds_fits_deadline(self, seed, ops):
        cdfg = random_dfg(RandomDFGSpec(ops=ops, seed=seed))
        problem = problem_of(cdfg)
        asap_length = ASAPScheduler(problem).schedule().length
        schedule = ForceDirectedScheduler(
            problem, deadline=asap_length
        ).schedule()
        schedule.validate()
        assert schedule.length <= asap_length


class TestPaperArithmetic:
    """The in-text schedule-length arithmetic of §2."""

    def test_serial_case_23_steps(self):
        cdfg = sqrt_cdfg()
        from repro.transforms import PassManager, TripCountAnalysis

        PassManager([TripCountAnalysis()]).run(cdfg)
        model = UniversalFUModel(count_bare_moves=True)
        lengths = {}
        for block in cdfg.blocks():
            problem = SchedulingProblem.from_block(
                block, model, ResourceConstraints({"fu": 1})
            )
            schedule = ListScheduler(problem).schedule()
            schedule.validate()
            lengths[block.id] = schedule.length
        assert total_steps(cdfg, lengths) == 23  # 3 + 4x5

    def test_parallel_case_10_steps(self):
        cdfg = sqrt_cdfg()
        optimize(cdfg)
        model = UniversalFUModel(count_bare_moves=True)
        lengths = {}
        for block in cdfg.blocks():
            problem = SchedulingProblem.from_block(
                block, model, ResourceConstraints({"fu": 2})
            )
            schedule = ListScheduler(problem).schedule()
            schedule.validate()
            lengths[block.id] = schedule.length
        assert total_steps(cdfg, lengths) == 10  # 2 + 4x2

    def test_total_steps_branch_takes_worst_arm(self):
        from repro.lang import compile_source

        cdfg = compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  if a > 0 then
    b := a * a + 1;
  else
    b := a;
end
""")
        lengths = {block.id: index + 1
                   for index, block in enumerate(cdfg.blocks())}
        # cond block + max(then, else)
        blocks = cdfg.blocks()
        expected = lengths[blocks[0].id] + max(
            lengths[blocks[1].id], lengths[blocks[2].id]
        )
        assert total_steps(cdfg, lengths) == expected
