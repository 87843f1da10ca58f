"""Parallel exploration must be a pure speedup: identical results.

The contract of ``n_jobs`` on :func:`repro.explore.explore_fu_range`
and :func:`repro.explore.search_for_latency` is that fanning points
out over worker processes changes wall-clock time and nothing else —
the :class:`DesignPoint` tables (constraints, area, cycles, clock)
match the serial sweep exactly, in the same order.
"""

import pytest

from repro import obs
from repro.core import SynthesisOptions, clear_synthesis_cache
from repro.explore import (
    ParallelExplorer,
    explore_fu_range,
    parallel,
    search_for_latency,
)
from repro.explore.dse import _PointBuilder
from repro.lang import compile_source
from repro.scheduling import UniversalFUModel
from repro.store import configure_store
from repro.workloads.diffeq import DIFFEQ_SOURCE
from repro.workloads.sqrt import SQRT_SOURCE

LIMITS = [1, 2, 3]


def rows(points):
    return [
        (str(p.constraints), p.area, p.cycles, p.clock_ns)
        for p in points
    ]


@pytest.fixture(autouse=True)
def _cold_cache():
    """Each run below must do its own work, not replay another's."""
    clear_synthesis_cache()
    yield
    clear_synthesis_cache()


@pytest.mark.parametrize("source", [SQRT_SOURCE, DIFFEQ_SOURCE],
                         ids=["sqrt", "diffeq"])
@pytest.mark.parametrize("n_jobs", [1, 4])
def test_sweep_matches_serial(source, n_jobs):
    serial = explore_fu_range(source, LIMITS)
    clear_synthesis_cache()
    jobbed = explore_fu_range(source, LIMITS, n_jobs=n_jobs)
    assert rows(jobbed.points) == rows(serial.points)
    assert rows(jobbed.pareto) == rows(serial.pareto)


def test_parallel_sweeps_share_the_parent_store(tmp_path):
    """Workers look designs up and record them through the same two
    tiers as the serial builder, in the parent's store directory: a
    cold sweep persists one entry per point, and once the memory tier
    is dropped a second sweep loads every point from disk."""
    limits = [1, 2, 3, 4]
    serial = explore_fu_range(SQRT_SOURCE, limits, use_cache=False)
    configure_store(tmp_path)
    obs.reset_metrics()
    cold = explore_fu_range(SQRT_SOURCE, limits, n_jobs=2)
    got = obs.metrics().counters()
    assert got["store.misses"] == got["store.persists"] == len(limits)
    clear_synthesis_cache()
    obs.reset_metrics()
    warm = explore_fu_range(SQRT_SOURCE, limits, n_jobs=2)
    got = obs.metrics().counters()
    assert got["store.hits"] == len(limits)
    assert got.get("store.persists", 0) == 0
    assert rows(cold.points) == rows(serial.points)
    assert rows(warm.points) == rows(serial.points)


def test_parallel_sweeps_fill_the_parent_memory_tier():
    """Designs the workers built land in the parent's memory tier, as
    the serial path's do: with no store, a serial sweep after a
    parallel one rebuilds nothing."""
    jobbed = explore_fu_range(SQRT_SOURCE, LIMITS, n_jobs=2)
    obs.reset_metrics()
    serial = explore_fu_range(SQRT_SOURCE, LIMITS)
    got = obs.metrics().counters()
    assert got.get("cache.hits", 0) == len(LIMITS)
    assert got.get("cache.misses", 0) == 0
    assert rows(serial.points) == rows(jobbed.points)


def test_worker_templates_are_bound_to_their_model(monkeypatch):
    """A worker task reuses an earlier task's template, and with it the
    schedule problems in its memo, only under the same resource model:
    sqrt at one FU takes a cycle more when bare moves cost a step than
    when they are free."""
    monkeypatch.setattr(parallel, "_WORKER_TEMPLATES", {})
    cycles = []
    for count_bare_moves in (True, False):
        options = SynthesisOptions(
            model=UniversalFUModel(count_bare_moves=count_bare_moves))
        builder = _PointBuilder(SQRT_SOURCE, "fu", options, None,
                                use_cache=False)
        builder.ensure_vectors()
        point, _, _ = parallel._build_point_task({
            "builder": (SQRT_SOURCE, "fu", options, builder.vectors,
                        False),
            "limit": 1, "trace": False, "store_dir": None,
        })
        assert rows([point]) == rows([builder.build(1)])
        cycles.append(point.cycles)
    assert cycles[0] > cycles[1]


def test_long_chain_sweep_matches_serial():
    # Worker results are pickled home; a 200-operator def-use chain
    # used to exceed the recursion limit there and fail every point.
    terms = " + ".join(f"a{index % 4}" for index in range(201))
    source = ("procedure chain(input a0, a1, a2, a3: int<16>; "
              f"output o: int<16>);\nbegin\n  o := {terms};\nend\n")
    serial = explore_fu_range(source, LIMITS, use_cache=False)
    jobbed = explore_fu_range(source, LIMITS, n_jobs=2, use_cache=False)
    assert not serial.failures and not jobbed.failures
    assert len(jobbed.points) == len(LIMITS)
    assert rows(jobbed.points) == rows(serial.points)


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_search_matches_serial(n_jobs):
    serial = search_for_latency(SQRT_SOURCE, 10, max_units=8)
    clear_synthesis_cache()
    jobbed = search_for_latency(SQRT_SOURCE, 10, max_units=8,
                                n_jobs=n_jobs)
    assert rows([jobbed]) == rows([serial])
    # the known answer for sqrt: two universal FUs reach 10 cycles
    assert str(jobbed.constraints) == "fu=2"


def test_search_infeasible_target_parallel():
    assert search_for_latency(SQRT_SOURCE, 1, max_units=4,
                              n_jobs=4) is None


def test_factory_source_falls_back_to_serial():
    """A closure factory cannot be pickled; the pool must silently
    degrade to the serial path and still produce correct points."""
    factory = lambda: compile_source(SQRT_SOURCE)  # noqa: E731
    serial = explore_fu_range(factory, LIMITS)
    jobbed = explore_fu_range(factory, LIMITS, n_jobs=4)
    assert rows(jobbed.points) == rows(serial.points)


def test_single_worker_explorer_never_spawns():
    builder = _PointBuilder(SQRT_SOURCE, "fu", None, None)
    explorer = ParallelExplorer(max_workers=1)
    points, failures = explorer.build_points(
        [(builder, limit) for limit in LIMITS])
    assert failures == []
    assert rows(points) == rows(explore_fu_range(SQRT_SOURCE,
                                                 LIMITS).points)


@pytest.mark.parametrize("bad", [0, -1, -8])
def test_worker_count_must_be_positive(bad):
    """Zero/negative used to silently mean one-per-CPU."""
    with pytest.raises(ValueError, match="max_workers"):
        ParallelExplorer(max_workers=bad)
