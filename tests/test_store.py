"""The persistent design store: keys, two-tier protocol, concurrency.

Covers the satellite guarantees of the store work: LRU recency on the
in-memory tier, disk round-trips across a cleared LRU (standing in
for a process restart), unstorable options bypassing the disk tier,
corruption-as-miss, key stability/sensitivity, racing writers, the
crash-mid-persist window, and the ``repro cache`` CLI verbs.
"""

from __future__ import annotations

import pickle

import pytest

from repro.__main__ import main
from repro.core import (
    SynthesisCache,
    SynthesisOptions,
    clear_synthesis_cache,
    source_digest,
    synthesize,
)
from repro.exec import run_tasks
from repro.obs import metrics
from repro.scheduling import ResourceConstraints, ResourceModel, TypedFUModel
from repro.store import (
    DesignStore,
    active_store,
    configure_store,
    options_token,
    reset_store,
    store_key,
)
from repro.workloads import SQRT_SOURCE


# ----------------------------------------------------------------------
# Satellite: the in-memory LRU must refresh recency on get().

def test_lru_get_refreshes_recency():
    cache = SynthesisCache(max_entries=2)
    cache.put(("a",), "design-a")
    cache.put(("b",), "design-b")
    # Touch a: it becomes most-recent, so inserting c must evict b.
    assert cache.get(("a",)) == "design-a"
    cache.put(("c",), "design-c")
    assert cache.get(("a",)) == "design-a"
    assert cache.get(("b",)) is None
    assert cache.get(("c",)) == "design-c"
    assert len(cache) == 2


# ----------------------------------------------------------------------
# Key schema.

def test_store_key_is_stable_across_equal_options():
    digest = source_digest(SQRT_SOURCE)
    a = SynthesisOptions(model=TypedFUModel(),
                         constraints=ResourceConstraints({"fu": 2}))
    b = SynthesisOptions(model=TypedFUModel(),
                         constraints=ResourceConstraints({"fu": 2}))
    # Distinct model instances, equal values: identical disk keys —
    # this is what the in-memory identity key cannot provide.
    assert a.cache_key() != b.cache_key()
    assert store_key(digest, None, a) == store_key(digest, None, b)


def test_store_key_varies_with_every_knob():
    digest = source_digest(SQRT_SOURCE)
    base = SynthesisOptions(constraints=ResourceConstraints({"fu": 2}))
    baseline = store_key(digest, None, base)
    assert baseline is not None
    variants = [
        store_key("other-digest", None, base),
        store_key(digest, "main", base),
        store_key(digest, None, SynthesisOptions(
            constraints=ResourceConstraints({"fu": 3}))),
        store_key(digest, None, SynthesisOptions(
            scheduler="force-directed",
            constraints=ResourceConstraints({"fu": 2}))),
        store_key(digest, None, SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2}),
            optimize_ir=False)),
    ]
    assert baseline not in variants
    assert len(set(variants)) == len(variants)


def test_custom_model_without_token_is_unstorable():
    class Opaque(ResourceModel):
        def classify(self, op):  # pragma: no cover - never scheduled
            return "fu"

        def delay(self, op):  # pragma: no cover - never scheduled
            return 1

    options = SynthesisOptions(model=Opaque())
    assert options_token(options) is None
    assert store_key("digest", None, options) is None


def test_unstorable_options_bypass_store(tmp_path):
    class Opaque(TypedFUModel):
        def cache_token(self):
            return None

    store = configure_store(tmp_path / "designs")
    synthesize(SQRT_SOURCE, options=SynthesisOptions(model=Opaque()),
               use_cache=True)
    assert store.stats()["entries"] == 0
    assert metrics().counter("store.persists").value == 0


# ----------------------------------------------------------------------
# Two-tier round trips.

def test_store_round_trip_across_cleared_lru(tmp_path):
    configure_store(tmp_path / "designs")
    options = SynthesisOptions(constraints=ResourceConstraints({"fu": 2}))
    first = synthesize(SQRT_SOURCE, options=options, use_cache=True)
    assert metrics().counter("store.persists").value == 1

    # A cleared LRU models a fresh process: the design must come back
    # from disk, not be re-synthesized.
    clear_synthesis_cache()
    runs_before = metrics().counter("scheduler.invocations",
                                    scheduler="list").value
    second = synthesize(SQRT_SOURCE, options=options, use_cache=True)
    assert metrics().counter("store.hits").value == 1
    assert metrics().counter("scheduler.invocations",
                             scheduler="list").value == runs_before
    assert second.stage_signatures() == first.stage_signatures()

    # The disk hit was re-inserted into the LRU: a third lookup stays
    # in memory.
    hits_before = metrics().counter("store.hits").value
    synthesize(SQRT_SOURCE, options=options, use_cache=True)
    assert metrics().counter("store.hits").value == hits_before


def test_store_keeps_a_long_chain_design(tmp_path):
    # Pickling used to recurse once per def-use link, so a design of a
    # few hundred chained operators never reached the disk.
    terms = " + ".join(f"a{index % 4}" for index in range(401))
    source = ("procedure chain(input a0, a1, a2, a3: int<16>; "
              f"output o: int<16>);\nbegin\n  o := {terms};\nend\n")
    configure_store(tmp_path / "designs")
    options = SynthesisOptions(constraints=ResourceConstraints({"fu": 4}))
    first = synthesize(source, options=options, use_cache=True)
    assert metrics().counter("store.errors").value == 0
    assert metrics().counter("store.persists").value == 1

    clear_synthesis_cache()
    second = synthesize(source, options=options, use_cache=True)
    assert metrics().counter("store.hits").value == 1
    assert second.stage_signatures() == first.stage_signatures()


def test_corrupt_entry_is_a_miss_and_reclaimed(tmp_path):
    store = configure_store(tmp_path / "designs")
    options = SynthesisOptions()
    synthesize(SQRT_SOURCE, options=options, use_cache=True)
    key = store_key(source_digest(SQRT_SOURCE), None, options)
    path = store._path(key)
    path.write_bytes(b"torn write garbage")

    clear_synthesis_cache()
    design = synthesize(SQRT_SOURCE, options=options, use_cache=True)
    assert design is not None
    assert metrics().counter("store.corrupt").value == 1
    # The corrupt file was removed and then re-persisted by the miss.
    assert pickle.loads(path.read_bytes()) is not None


def test_store_disabled_by_default():
    assert active_store() is None


def test_configure_none_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    reset_store()
    assert active_store() is not None
    configure_store(None)
    assert active_store() is None


def test_env_kill_switch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_STORE", "0")
    reset_store()
    assert active_store() is None


# ----------------------------------------------------------------------
# Maintenance: stats / gc / clear.

def test_gc_prunes_entries_temps_and_stale_versions(tmp_path):
    root = tmp_path / "designs"
    store = configure_store(root)
    for limit in (1, 2, 3):
        synthesize(SQRT_SOURCE, use_cache=True, options=SynthesisOptions(
            constraints=ResourceConstraints({"fu": limit})))
    assert store.stats()["entries"] == 3

    stale = root / "v0" / "ab"
    stale.mkdir(parents=True)
    (stale / "old.pkl").write_bytes(b"x")
    orphan = store.version_dir / "ab"
    orphan.mkdir(parents=True, exist_ok=True)
    (orphan / ".tmp-deadbeef-1-abc").write_bytes(b"partial")
    assert store.stats()["temp_files"] == 1

    removed = store.gc(max_entries=1, tmp_grace_s=0.0)
    assert removed == {"entries": 2, "temp_files": 1,
                       "stale_versions": 1}
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["temp_files"] == 0
    assert not (root / "v0").exists()


def test_gc_grace_period_protects_live_temps(tmp_path):
    store = DesignStore(tmp_path)
    live = store.version_dir / "ab"
    live.mkdir(parents=True)
    (live / ".tmp-deadbeef-1-abc").write_bytes(b"in flight")
    removed = store.gc()  # default grace: a fresh temp survives
    assert removed["temp_files"] == 0
    assert store.stats()["temp_files"] == 1


def test_clear_removes_everything(tmp_path):
    store = configure_store(tmp_path / "designs")
    synthesize(SQRT_SOURCE, use_cache=True)
    assert store.stats()["entries"] == 1
    store.clear()
    assert store.stats()["entries"] == 0
    assert not store.version_dir.exists()


# ----------------------------------------------------------------------
# Concurrency: repro.exec workers racing on one key.

def _persist_task(payload: dict) -> bool:
    """Worker-side: synthesize with the two-tier cache against the
    shipped store directory (module-level for pickling)."""
    configure_store(payload["store_dir"])
    options = SynthesisOptions(
        constraints=ResourceConstraints({"fu": payload["fu"]})
    )
    design = synthesize(payload["source"], options=options,
                        use_cache=True)
    return design is not None


def test_racing_workers_do_not_corrupt_the_store(tmp_path):
    root = tmp_path / "designs"
    payload = {"store_dir": str(root), "source": SQRT_SOURCE, "fu": 2}
    batch = run_tasks(_persist_task, [payload, payload],
                      labels=["race0", "race1"], max_workers=2)
    assert [o.value for o in batch.outcomes] == [True, True]

    store = DesignStore(root)
    stats = store.stats()
    # Both writers published the same content address; last rename
    # won and the surviving entry must deserialize.
    assert stats["entries"] == 1
    assert stats["temp_files"] == 0
    options = SynthesisOptions(constraints=ResourceConstraints({"fu": 2}))
    key = store_key(source_digest(SQRT_SOURCE), None, options)
    assert store.get(key) is not None


@pytest.mark.fault_smoke
def test_crash_mid_persist_leaves_only_temps(tmp_path, monkeypatch):
    """A worker dying between temp-write and rename must cost nothing:
    no partial entry, the parent fallback persists, gc reclaims the
    orphaned temps."""
    monkeypatch.setenv("REPRO_FAULT", "crash:store.persist:worker")
    root = tmp_path / "designs"
    payload = {"store_dir": str(root), "source": SQRT_SOURCE, "fu": 2}

    def fallback(task_payload, index):
        # Parent scope: the worker-scoped fault does not fire here.
        configure_store(task_payload["store_dir"])
        return _persist_task(task_payload)

    batch = run_tasks(_persist_task, [payload], labels=["crash0"],
                      max_workers=1, max_retries=1, backoff_s=0.01,
                      fallback=fallback)
    assert batch.outcomes[0].value is True
    assert batch.outcomes[0].degraded

    store = DesignStore(root)
    stats = store.stats()
    assert stats["entries"] == 1        # the parent's publish
    assert stats["temp_files"] >= 1     # the crashed attempts' orphans
    removed = store.gc(tmp_grace_s=0.0)
    assert removed["temp_files"] == stats["temp_files"]
    assert store.stats()["temp_files"] == 0
    options = SynthesisOptions(constraints=ResourceConstraints({"fu": 2}))
    key = store_key(source_digest(SQRT_SOURCE), None, options)
    assert store.get(key) is not None


# ----------------------------------------------------------------------
# CLI verbs.

def test_cache_cli_stats_gc_clear(tmp_path, capsys):
    root = tmp_path / "designs"
    configure_store(root)
    synthesize(SQRT_SOURCE, use_cache=True)

    assert main(["cache", "stats", "--dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "1" in out

    assert main(["cache", "gc", "--dir", str(root),
                 "--max-entries", "0"]) == 0
    assert "removed 1 entries" in capsys.readouterr().out

    synthesize(SQRT_SOURCE, use_cache=True)
    assert main(["cache", "clear", "--dir", str(root)]) == 0
    assert "cleared" in capsys.readouterr().out
    assert DesignStore(root).stats()["entries"] == 0


def test_cache_cli_stats_json(tmp_path, capsys):
    import json

    assert main(["cache", "stats", "--dir", str(tmp_path),
                 "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 0
    assert stats["schema_version"] >= 1


def test_synth_cli_store_flag(tmp_path, capsys, monkeypatch):
    sqrt_file = tmp_path / "sqrt.bsl"
    sqrt_file.write_text(SQRT_SOURCE)
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "designs"))
    reset_store()
    assert main(["synth", str(sqrt_file), "--fu", "2",
                 "--store"]) == 0
    capsys.readouterr()
    assert DesignStore(tmp_path / "designs").stats()["entries"] == 1

    # --no-store must win over the environment.
    assert main(["synth", str(sqrt_file), "--fu", "2",
                 "--no-store"]) == 0
    capsys.readouterr()
    assert metrics().counter("store.hits").value == 0
