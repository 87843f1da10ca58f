"""Whole designs are identical with and without the test-only oracles.

Each case synthesizes twice: once on the library's ready-set list
scheduler, incremental force-directed scheduler, lazy-heap clique
partitioning, one-per-synthesis liveness solve and graph core
(``repro.ir.graph``), once with the oracles, networkx dependence graphs
among them, swapped in (:func:`oracles.reference_algorithms`).  Every
pipeline stage's signature must match — scheduling, allocation,
binding and controller — and so must the emitted Verilog, which also
covers the datapath plans the signatures leave out, and the count of
list-scheduler deferrals.  The grid spans random DFG sizes, the
checked-in regression corpus, the paper's workloads under each
transform directive, and an incremental resynthesis.
"""

from pathlib import Path

import networkx as nx
import pytest

from repro.core import (
    SynthesisOptions,
    resynthesize,
    synthesize,
    synthesize_cdfg,
)
from repro.obs import metrics
from repro.rtl import emit_verilog
from repro.scheduling import (
    ListScheduler,
    ResourceConstraints,
    SchedulingProblem,
    TypedFUModel,
    UniversalFUModel,
)
from repro.verify import Corpus
from repro.workloads import (
    DIFFEQ_SOURCE,
    SQRT_SOURCE,
    build_dfg,
    ewf_cdfg,
    fig5_cdfg,
    fig6_cdfg,
    fir_source,
)
from repro.workloads.random_dfg import RandomDFGSpec, random_dfg

from .oracles import reference_algorithms, reference_list_schedule
from .test_incremental_resynthesis import BASE, EDITED

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
PIPELINES = [("list", "clique"), ("force-directed", "left-edge")]


def test_reference_problems_are_built_on_networkx():
    (block,) = random_dfg(RandomDFGSpec(ops=20, inputs=4, seed=1)).blocks()
    with reference_algorithms():
        problem = SchedulingProblem.from_block(block, UniversalFUModel())
    assert isinstance(problem.graph, nx.DiGraph)
    assert problem.topological() == list(
        nx.lexicographical_topological_sort(problem.graph))


def _options(scheduler, allocator, fu=None, **extra) -> SynthesisOptions:
    return SynthesisOptions(
        scheduler=scheduler, allocator=allocator,
        constraints=ResourceConstraints({"fu": fu}) if fu else None,
        **extra,
    )


def _deferrals(build):
    """``build()``'s result and the list deferrals it counted."""
    counter = metrics().counter("scheduler.list.deferred")
    before = counter.value
    result = build()
    return result, counter.value - before


def _assert_same_design(build) -> None:
    """``build()`` returns a fresh design; compare it with the one the
    oracles produce."""
    fast, fast_deferrals = _deferrals(build)
    with reference_algorithms():
        slow, slow_deferrals = _deferrals(build)
    fast_stages = fast.stage_signatures()
    for stage, signature in slow.stage_signatures().items():
        assert fast_stages[stage] == signature, f"{stage} diverged"
    assert emit_verilog(fast) == emit_verilog(slow)
    assert fast_deferrals == slow_deferrals


@pytest.mark.parametrize("fu", [1, 2, 3, 4])
@pytest.mark.parametrize("ops", [40, 120, 300])
def test_list_left_edge_size_grid(ops, fu):
    spec = RandomDFGSpec(ops=ops, inputs=8, seed=ops + fu)
    _assert_same_design(lambda: synthesize_cdfg(
        random_dfg(spec), _options("list", "left-edge", fu)))


@pytest.mark.parametrize("fu", [1, 2, 3])
@pytest.mark.parametrize("ops", [30, 120])
@pytest.mark.parametrize("priority", ["path_length", "urgency", "mobility"])
def test_list_priorities(priority, ops, fu):
    (block,) = random_dfg(RandomDFGSpec(ops=ops, inputs=6,
                                        seed=ops * fu)).blocks()
    problem = SchedulingProblem.from_block(
        block, UniversalFUModel(), ResourceConstraints({"fu": fu}))
    fast, fast_deferrals = _deferrals(
        lambda: ListScheduler(problem, priority).schedule())
    slow, slow_deferrals = _deferrals(
        lambda: reference_list_schedule(ListScheduler(problem, priority)))
    # Placement order included: the start dicts iterate alike.
    assert list(fast.start.items()) == list(slow.start.items())
    assert fast_deferrals == slow_deferrals
    if fu == 1:
        assert fast_deferrals > 0  # resource pressure was exercised


@pytest.mark.parametrize("fu", [2, 4])
@pytest.mark.parametrize("ops", [12, 30, 60])
def test_list_clique_size_grid(ops, fu):
    spec = RandomDFGSpec(ops=ops, inputs=6, seed=ops + fu)
    _assert_same_design(lambda: synthesize_cdfg(
        random_dfg(spec), _options("list", "clique", fu)))


def test_list_scheduler_derives_each_ready_step_once(monkeypatch):
    """Work-count guard: the ready set derives an op's ready step once,
    when its last predecessor is placed; the rescanning loop re-derives
    it for every ready op on every pass."""
    (block,) = random_dfg(RandomDFGSpec(ops=1000, inputs=8,
                                        seed=3)).blocks()
    problem = SchedulingProblem.from_block(
        block, UniversalFUModel(), ResourceConstraints({"fu": 4}))
    calls = 0
    derive = ListScheduler._ready_step

    def counting(scheduler, op_id, start):
        nonlocal calls
        calls += 1
        return derive(scheduler, op_id, start)

    monkeypatch.setattr(ListScheduler, "_ready_step", counting)
    fast = ListScheduler(problem).schedule()
    fast_calls, calls = calls, 0
    slow = reference_list_schedule(ListScheduler(problem))
    assert fast.start == slow.start
    assert fast_calls <= len(problem.ops) < calls


@pytest.mark.parametrize("fu", [2, 4])
@pytest.mark.parametrize("ops", [20, 60, 120])
def test_force_directed_left_edge_size_grid(ops, fu):
    spec = RandomDFGSpec(ops=ops, inputs=8, seed=ops + fu)
    _assert_same_design(lambda: synthesize_cdfg(
        random_dfg(spec), _options("force-directed", "left-edge", fu)))


@pytest.mark.parametrize(
    "entry", Corpus(CORPUS_DIR).load(), ids=lambda entry: entry.key,
)
@pytest.mark.parametrize("pipeline", PIPELINES, ids="/".join)
def test_regression_corpus(entry, pipeline):
    case = entry.case
    _assert_same_design(lambda: synthesize_cdfg(
        build_dfg(case.recipe), _options(*pipeline, case.fu_limit)))


@pytest.mark.parametrize("fu", [1, 2, 3])
@pytest.mark.parametrize("pipeline", PIPELINES, ids="/".join)
@pytest.mark.parametrize("source", [SQRT_SOURCE, DIFFEQ_SOURCE,
                                    fir_source(8)],
                         ids=["sqrt", "diffeq", "fir"])
def test_paper_programs(source, pipeline, fu):
    _assert_same_design(lambda: synthesize(
        source, options=_options(*pipeline, fu)))


@pytest.mark.parametrize("pipeline", PIPELINES, ids="/".join)
@pytest.mark.parametrize("figure", [fig5_cdfg, fig6_cdfg, ewf_cdfg],
                         ids=lambda factory: factory.__name__)
def test_paper_figures(figure, pipeline):
    _assert_same_design(lambda: synthesize_cdfg(
        figure(), _options(*pipeline, model=TypedFUModel())))


@pytest.mark.parametrize("pipeline", PIPELINES, ids="/".join)
@pytest.mark.parametrize("directive",
                         ["unroll", "if_conversion", "tree_height"])
@pytest.mark.parametrize("source", [SQRT_SOURCE, DIFFEQ_SOURCE,
                                    fir_source(8)],
                         ids=["sqrt", "diffeq", "fir"])
def test_paper_programs_under_directives(source, directive, pipeline):
    _assert_same_design(lambda: synthesize(
        source, options=_options(*pipeline, 2, **{directive: True})))


@pytest.mark.parametrize("pipeline", PIPELINES, ids="/".join)
def test_resynthesize_multi_block_edit(pipeline):
    options = _options(*pipeline, 2)
    baseline = synthesize(BASE, options=options)
    _assert_same_design(
        lambda: resynthesize(baseline, EDITED, options=options).design)
