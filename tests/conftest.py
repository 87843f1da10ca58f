"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import clear_synthesis_cache
from repro.scheduling import (
    ResourceConstraints,
    TypedFUModel,
    UniversalFUModel,
)
from repro.workloads import SQRT_SOURCE


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (raised hypothesis budgets)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(autouse=True)
def _fresh_synthesis_cache():
    """Isolate tests from the process-global design cache.

    Cached designs are shared objects; a test that mutates one (or
    depends on hit/miss counters) must not leak state into the next.
    """
    clear_synthesis_cache()
    yield
    clear_synthesis_cache()


@pytest.fixture(autouse=True)
def _no_design_store(monkeypatch):
    """Keep the persistent store tier out of tests by default.

    A developer's ``REPRO_STORE_DIR`` must not leak cached designs
    into the suite; tests that want the disk tier opt in by calling
    ``configure_store`` themselves.
    """
    from repro.store import reset_store

    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)
    reset_store()
    yield
    reset_store()


@pytest.fixture(autouse=True)
def _fresh_observability():
    """Fresh tracer + zeroed metrics registry per test.

    Also restores the env-derived tracing flag, so a test that
    enables tracing and fails mid-way cannot leak spans (or an
    enabled flag) into the next test.
    """
    obs.reset_tracing()
    obs.reset_metrics()
    obs.reset_memory()
    yield
    obs.reset_tracing()
    obs.reset_metrics()
    obs.reset_memory()


@pytest.fixture(autouse=True)
def _no_run_ledger(monkeypatch):
    """Keep the run ledger out of tests by default.

    Mirrors ``_no_design_store``: a developer's ``REPRO_LEDGER_DIR``
    must not make every synthesized design append a run record; tests
    that want the ledger opt in via ``configure_ledger``.
    """
    from repro.obs.ledger import reset_ledger

    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    monkeypatch.delenv("REPRO_MEM", raising=False)
    reset_ledger()
    yield
    reset_ledger()


@pytest.fixture
def sqrt_source() -> str:
    return SQRT_SOURCE


@pytest.fixture
def universal_model() -> UniversalFUModel:
    return UniversalFUModel()


@pytest.fixture
def unit_model() -> TypedFUModel:
    """Typed FUs, every delay one cycle."""
    return TypedFUModel(single_cycle=True)


@pytest.fixture
def two_fu() -> ResourceConstraints:
    return ResourceConstraints({"fu": 2})


@pytest.fixture
def one_fu() -> ResourceConstraints:
    return ResourceConstraints({"fu": 1})
