"""Liveness is solved once per synthesis and handed to the block stages.

The engine solves variable liveness for the transformed CDFG once per
``synthesize_cdfg`` call and carries each block's live-out set on the
block's :class:`SchedulingProblem`; left-edge allocation, the
allocation checker and datapath planning read it there instead of each
re-solving the whole procedure.  The guards count whole-procedure
solves through a wrapper — deterministic work counts, no wall clock.
The stage contracts and the linter solve on their own, once per
design, so they stay an independent check of the hand-off.
"""

import sys

import pytest

import repro.analysis.liveness as liveness_module
import repro.core.engine as engine_module
from repro.analysis import DiagnosticSink, LivenessResult
from repro.analysis.lint import lint_design
from repro.analysis.liveness import live_out_variables, region_live_out
from repro.core import SynthesisOptions, resynthesize, synthesize
from repro.explore import explore_directives
from repro.lang import compile_source
from repro.scheduling import (
    ListScheduler,
    ResourceConstraints,
    SchedulingProblem,
    UniversalFUModel,
)
from repro.verify import verify_design
from repro.workloads import DIFFEQ_SOURCE, SQRT_SOURCE, fir_source

from .oracles import reference_algorithms
from .test_incremental_resynthesis import BASE, EDITED

SOURCES = {"sqrt": SQRT_SOURCE, "diffeq": DIFFEQ_SOURCE,
           "fir": fir_source(8)}
PIPELINES = [("list", "left-edge"), ("list", "clique"),
             ("force-directed", "left-edge")]


def _options(scheduler="list", allocator="left-edge", fu=2):
    return SynthesisOptions(scheduler=scheduler, allocator=allocator,
                            constraints=ResourceConstraints({"fu": fu}))


def _count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` in every ``repro`` module that binds it;
    returns the list each call appends its first argument to."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "repro":
            continue
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def solves(monkeypatch):
    return _count_calls(monkeypatch, liveness_module, "variable_liveness")


@pytest.fixture
def syntheses(monkeypatch):
    return _count_calls(monkeypatch, engine_module, "synthesize_cdfg")


@pytest.mark.parametrize("pipeline", PIPELINES, ids="/".join)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_one_solve_per_synthesis(name, pipeline, solves, syntheses):
    design = synthesize(SOURCES[name], options=_options(*pipeline))
    assert len(design.schedules) > 1
    assert len(syntheses) == 1
    assert len(solves) == 1


@pytest.mark.parametrize("name,allocator,per_call", [
    ("sqrt", "left-edge", 6), ("diffeq", "left-edge", 12),
    ("fir", "left-edge", 12), ("sqrt", "clique", 4),
    ("diffeq", "clique", 8), ("fir", "clique", 8),
])
def test_per_call_oracle_solves_per_block(name, allocator, per_call,
                                          solves):
    """The work the hand-off removes: with every consumer re-solving
    per call, left-edge allocation, its checker and the datapath plan
    make three solves per block (clique allocation skips liveness,
    so two), on top of the engine's one."""
    with reference_algorithms():
        design = synthesize(SOURCES[name],
                            options=_options("list", allocator))
    per_block = {"left-edge": 3, "clique": 2}[allocator]
    assert per_call == per_block * len(design.schedules)
    assert len(solves) == 1 + per_call


def test_resynthesize_solves_once(solves, syntheses):
    baseline = synthesize(BASE, options=_options())
    solves.clear()
    syntheses.clear()
    report = resynthesize(baseline, EDITED, options=_options())
    assert report.replayed_blocks and len(report.design.schedules) > 1
    assert len(syntheses) == 1
    assert len(solves) == 1


def test_directive_sweep_solves_once_per_full_build(solves, syntheses):
    result = explore_directives(DIFFEQ_SOURCE, [1, 2, 3],
                                use_cache=False)
    assert result.funnel["configs_evaluated"] > 0
    assert len(syntheses) == result.funnel["configs_evaluated"]
    assert len(solves) == len(syntheses)


def test_hand_off_is_each_blocks_live_out_set():
    design = synthesize(DIFFEQ_SOURCE, options=_options())
    liveness = liveness_module.variable_liveness(design.cdfg)
    for block_id, schedule in design.schedules.items():
        problem = schedule.problem
        assert problem.live_out == liveness.live_out[block_id]
        assert live_out_variables(schedule) is problem.live_out
        assert region_live_out(problem.ops) == problem.live_out


def test_constraint_clones_share_the_set():
    design = synthesize(SQRT_SOURCE, options=_options())
    problem = next(iter(design.schedules.values())).problem
    clone = problem.with_constraints(ResourceConstraints({"fu": 1}))
    assert clone.live_out is problem.live_out


def test_problems_built_outside_the_engine_solve_per_call(solves):
    cdfg = compile_source(DIFFEQ_SOURCE)
    block = max(cdfg.blocks(), key=lambda block: len(block.ops))
    problem = SchedulingProblem.from_block(block, UniversalFUModel())
    assert problem.live_out is None
    schedule = ListScheduler(problem).schedule()
    live_out = live_out_variables(schedule)
    assert len(solves) == 1
    assert live_out == liveness_module.variable_liveness(
        cdfg).live_out[block.id]


def test_contracts_and_lint_solve_once_per_design(solves):
    design = synthesize(DIFFEQ_SOURCE, options=_options())
    solves.clear()
    assert verify_design(design).ok
    assert solves == [design.cdfg]
    solves.clear()
    lint_design(design, DiagnosticSink())
    assert solves == [design.cdfg]


def test_contract_checks_the_hand_off_independently(monkeypatch):
    """A hand-off claiming nothing is live out lets left-edge drop the
    registers of every variable write; the allocation contract, which
    solves liveness itself, must flag them."""
    original = liveness_module.variable_liveness

    def nothing_live(cdfg):
        solved = original(cdfg)
        return LivenessResult(
            solved.live_in,
            {block_id: frozenset() for block_id in solved.live_out},
        )

    monkeypatch.setattr(engine_module, "variable_liveness", nothing_live)
    design = synthesize(SQRT_SOURCE, options=_options())
    report = verify_design(design, stages=("allocation",))
    assert {violation.kind for violation in report.violations} \
        == {"register-missing"}
