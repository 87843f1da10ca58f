"""The incremental force-directed scheduler is a pure optimization.

``ForceDirectedScheduler`` keeps time frames and distribution graphs
up to date incrementally as operations are pinned, and rescores only
the placements whose inputs changed; the textbook full-recompute loop
is the oracle (``oracles.ReferenceForceDirectedScheduler``).  Both
loops share the integer-scaled distribution arithmetic and the one
placement and self-force expressions, so the schedules must match
*op for op* — not just in length or cost.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import OpKind
from repro.scheduling import (
    ForceDirectedScheduler,
    SchedulingProblem,
    TimingConstraint,
    TypedFUModel,
    UniversalFUModel,
)
from repro.scheduling.force_directed import _probability_row
from repro.scheduling.mobility import compute_time_frames
from repro.workloads import ewf_cdfg, fig5_cdfg
from repro.workloads.random_dfg import RandomDFGSpec, random_dfg

from .oracles import ReferenceForceDirectedScheduler

MODELS = {"typed": TypedFUModel, "universal": UniversalFUModel}


def _single_block_problem(cdfg, model, time_limit=None,
                          timing_constraints=None):
    block = next(b for b in cdfg.blocks() if b.ops)
    return SchedulingProblem(list(block.ops), model, time_limit=time_limit,
                             label=block.name,
                             timing_constraints=timing_constraints)


def _both_schedules(problem_factory, deadline=None):
    reference = ReferenceForceDirectedScheduler(
        problem_factory(), deadline=deadline
    ).schedule()
    incremental = ForceDirectedScheduler(
        problem_factory(), deadline=deadline
    ).schedule()
    reference.validate()
    incremental.validate()
    return reference, incremental


def _self_force_count(monkeypatch, scheduler_class, problem) -> int:
    """``_self_force`` evaluations of one scheduling run."""
    calls = 0
    original = ForceDirectedScheduler._self_force

    def counted(self, *args, **kw):
        nonlocal calls
        calls += 1
        return original(self, *args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(ForceDirectedScheduler, "_self_force", counted)
        scheduler_class(problem).schedule()
    return calls


def test_fig5_incremental_matches_reference():
    factory = lambda: _single_block_problem(  # noqa: E731
        fig5_cdfg(), TypedFUModel(single_cycle=True), time_limit=3
    )
    reference, incremental = _both_schedules(factory, deadline=3)
    assert incremental.start == reference.start
    # and both still reproduce the paper's Fig. 5 outcome
    problem = factory()
    a3 = [op.id for op in problem.ops if op.kind is OpKind.ADD][-1]
    assert incremental.start[a3] == 2
    assert incremental.resource_usage()["add"] == 1


def test_ewf_incremental_matches_reference():
    """Multicycle multiplies (delay 2) stretch occupancy rows across
    steps — the delta updates must account for the full span."""
    factory = lambda: _single_block_problem(  # noqa: E731
        ewf_cdfg(), TypedFUModel()
    )
    reference, incremental = _both_schedules(factory)
    assert incremental.start == reference.start


@pytest.mark.parametrize("slack", [1, 4])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_ewf_relaxed_deadline_matches_reference(model, slack):
    """The invalidation windows ``[asap, alap + span - 1]`` must cover
    a multicycle op's whole span, also when slack widens frames."""
    factory = lambda: _single_block_problem(  # noqa: E731
        ewf_cdfg(), MODELS[model]()
    )
    deadline = compute_time_frames(factory()).deadline + slack
    reference, incremental = _both_schedules(factory, deadline=deadline)
    assert incremental.start == reference.start


@pytest.mark.parametrize("seed", [7, 42, 99])
@pytest.mark.parametrize("ops", [30, 60])
def test_random_dfg_incremental_matches_reference(seed, ops):
    spec = RandomDFGSpec(ops=ops, seed=seed)
    factory = lambda: _single_block_problem(  # noqa: E731
        random_dfg(spec), TypedFUModel()
    )
    reference, incremental = _both_schedules(factory)
    assert incremental.start == reference.start


@pytest.mark.parametrize("window", [3, 12])
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("ops", [20, 50, 120, 200])
def test_random_dfg_grid_matches_reference(ops, model, window):
    """20-200 ops, both resource models, narrow (deep) and wide
    (shallow) dependence windows."""
    spec = RandomDFGSpec(ops=ops, inputs=8, seed=ops + window,
                         fan_in_window=window)
    factory = lambda: _single_block_problem(  # noqa: E731
        random_dfg(spec), MODELS[model]()
    )
    reference, incremental = _both_schedules(factory)
    assert incremental.start == reference.start


@pytest.mark.parametrize("slack", [1, 5])
@pytest.mark.parametrize("ops", [30, 90])
def test_relaxed_random_deadline_matches_reference(ops, slack):
    """Extra slack widens every frame, so each pin moves more frames
    and dirties more distribution-graph cells."""
    spec = RandomDFGSpec(ops=ops, inputs=8, seed=5)
    factory = lambda: _single_block_problem(  # noqa: E731
        random_dfg(spec), TypedFUModel()
    )
    deadline = compute_time_frames(factory()).deadline + slack
    reference, incremental = _both_schedules(factory, deadline=deadline)
    assert incremental.start == reference.start


@pytest.mark.parametrize("seed", [3, 11, 19])
def test_timing_constraints_match_reference(seed):
    """Minimum-offset timing constraints fold into the dependence
    graph as extra edges, i.e. extra neighbours whose frames and
    forces an op's placement reads."""
    spec = RandomDFGSpec(ops=40, inputs=6, seed=seed)

    def factory():
        cdfg = random_dfg(spec)
        block = next(b for b in cdfg.blocks() if b.ops)
        muls = [op.id for op in block.ops if op.kind is OpKind.MUL]
        adds = [op.id for op in block.ops if op.kind is OpKind.ADD]
        constraints = [
            TimingConstraint(muls[0], muls[-1], min_offset=2),
            TimingConstraint(adds[0], adds[-1], min_offset=1),
        ]
        return _single_block_problem(cdfg, TypedFUModel(),
                                     timing_constraints=constraints)

    reference, incremental = _both_schedules(factory)
    assert incremental.start == reference.start
    deadline = compute_time_frames(factory()).deadline + 2
    reference, incremental = _both_schedules(factory, deadline=deadline)
    assert incremental.start == reference.start


def test_relaxed_deadline_matches_reference():
    """Extra slack widens every frame; the paths must still agree."""
    factory = lambda: _single_block_problem(  # noqa: E731
        fig5_cdfg(), TypedFUModel(single_cycle=True)
    )
    reference, incremental = _both_schedules(factory, deadline=5)
    assert incremental.start == reference.start


def test_incremental_path_rescores_only_changed_placements(monkeypatch):
    """Work guard, deterministic: the full-rescoring loop evaluates
    13,052 self forces on this 120-op graph, the incremental path
    about 2,400.  A return to rescoring every pending op each round
    fails the bound."""
    spec = RandomDFGSpec(ops=120, inputs=8, seed=3)
    factory = lambda: _single_block_problem(  # noqa: E731
        random_dfg(spec), TypedFUModel()
    )
    reference = _self_force_count(
        monkeypatch, ReferenceForceDirectedScheduler, factory()
    )
    incremental = _self_force_count(
        monkeypatch, ForceDirectedScheduler, factory()
    )
    assert reference > 12_000
    assert incremental <= 3_000


@given(first=st.integers(0, 40), width=st.integers(1, 40),
       span=st.integers(1, 5))
def test_probability_row_matches_start_by_start_accumulation(first, width,
                                                             span):
    """Both paths read rows built in closed form; the floats and the
    key order must equal the textbook per-start loop's."""
    last = first + width - 1
    expected: dict[int, float] = {}
    for t in range(first, last + 1):
        for s in range(t, t + span):
            expected[s] = expected.get(s, 0.0) + 1.0 / width
    row = _probability_row(first, last, span)
    assert list(row.items()) == list(expected.items())
