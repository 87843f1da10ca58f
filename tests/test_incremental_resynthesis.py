"""Incremental re-synthesis: CDFG diffing, schedule replay, parity.

The contract under test: ``resynthesize(baseline, edited_source)``
must produce a design **indistinguishable** from a full from-scratch
synthesis of the edited source (the differential verifier is the
arbiter), while actually replaying the baseline's schedules for every
content-unchanged block.
"""

from __future__ import annotations

import pytest

from repro.analysis import block_digest, cdfg_digests, diff_cdfgs
from repro.core import (
    SynthesisOptions,
    resynthesize,
    resynthesize_from_cache,
    synthesize,
)
from repro.lang import compile_source
from repro.obs import metrics
from repro.scheduling import ResourceConstraints
from repro.store import configure_store
from repro.transforms import optimize

#: A multi-block program: straight-line preamble, data-dependent
#: loop, epilogue.  ``{c}`` is the constant the "edit" changes.
PIPE_SOURCE = """
procedure pipe(input x: fixed<32,16>; input a: fixed<32,16>;
               output y: fixed<32,16>);
var t1, t2, t3, p: fixed<32,16>;
begin
  t1 := x * x + 3.0 * x;
  t2 := t1 * x - 2.0 * t1;
  t3 := t2 * t1 + x * t2;
  p := t3 + t2 * t3;
  while p < a do
  begin
    p := p + t1 * 0.125;
  end;
  y := p + {c};
end
"""

BASE = PIPE_SOURCE.format(c="0.5")
EDITED = PIPE_SOURCE.format(c="0.25")

OPTIONS = SynthesisOptions(constraints=ResourceConstraints({"fu": 2}))


def _compiled(source: str, options: SynthesisOptions = OPTIONS):
    cdfg = compile_source(source)
    if options.optimize_ir:
        optimize(cdfg, unroll=options.unroll,
                 tree_height=options.tree_height)
    return cdfg


# ----------------------------------------------------------------------
# Digests and diffing.

def test_block_digests_stable_across_recompiles():
    first = cdfg_digests(_compiled(BASE))
    second = cdfg_digests(_compiled(BASE))
    assert first == second


def test_block_digest_is_position_based_not_id_based():
    cdfg = _compiled(BASE)
    blocks = [b for b in cdfg.blocks() if b.ops]
    positions = None  # computed internally
    # Recompiling gives globally different op/value ids but identical
    # per-block digests.
    other = _compiled(BASE)
    other_blocks = {b.name: b for b in other.blocks()}
    for block in blocks:
        assert block_digest(block, positions) \
            == block_digest(other_blocks[block.name])


def test_diff_detects_single_dirty_block():
    delta = diff_cdfgs(_compiled(BASE), _compiled(EDITED))
    assert len(delta.dirty) == 1
    assert len(delta.unchanged) >= 3
    assert not delta.added and not delta.removed


def test_diff_flags_structural_edits():
    added_loop = BASE.replace(
        "y := p + 0.5;",
        "while p < t1 do\n  begin\n    p := p + 1.0;\n  end;\n"
        "  y := p + 0.5;",
    )
    delta = diff_cdfgs(_compiled(BASE), _compiled(added_loop))
    # The new loop shifts the block names after it: they are added.
    assert delta.added


def test_identical_sources_diff_clean():
    delta = diff_cdfgs(_compiled(BASE), _compiled(BASE))
    assert not delta.dirty and not delta.added and not delta.removed


# ----------------------------------------------------------------------
# Replay and parity.

def test_resynthesize_replays_unchanged_blocks():
    baseline = synthesize(BASE, options=OPTIONS)
    report = resynthesize(baseline, EDITED, options=OPTIONS)
    assert len(report.replayed_blocks) == len(report.delta.unchanged)
    assert len(report.scheduled_blocks) >= 1
    assert metrics().counter("engine.blocks.replayed").value \
        == len(report.replayed_blocks)
    assert set(report.scheduled_blocks) >= set(report.delta.dirty)


def test_resynthesize_matches_full_synthesis():
    baseline = synthesize(BASE, options=OPTIONS)
    report = resynthesize(baseline, EDITED, options=OPTIONS,
                          verify=True)
    assert report.verified is True
    full = synthesize(EDITED, options=OPTIONS)
    assert report.design.stage_signatures() == full.stage_signatures()


@pytest.mark.parametrize("scheduler", ["list", "force-directed"])
def test_parity_across_schedulers(scheduler):
    options = SynthesisOptions(
        scheduler=scheduler,
        constraints=ResourceConstraints({"fu": 2}),
    )
    baseline = synthesize(BASE, options=options)
    report = resynthesize(baseline, EDITED, options=options,
                          verify=True)
    assert report.verified is True
    assert report.replayed_blocks  # reuse actually happened


def test_structural_edit_still_correct():
    """A structure-changing edit gets little or no replay, but the
    result must still be verifiably equivalent to full synthesis."""
    edited = BASE.replace(
        "y := p + 0.5;",
        "while p < t1 do\n  begin\n    p := p + 1.0;\n  end;\n"
        "  y := p + 0.5;",
    )
    baseline = synthesize(BASE, options=OPTIONS)
    report = resynthesize(baseline, edited, options=OPTIONS,
                          verify=True)
    assert report.verified is True


#: A program whose first block has enough parallel work that list and
#: force-directed scheduling place it differently at four FUs, and
#: that two FUs schedule differently from unlimited ones.
WIDE_SOURCE = """
procedure wide(input x: fixed<32,16>; input a: fixed<32,16>;
               output y: fixed<32,16>);
var t1, t2, t3, t4, p: fixed<32,16>;
begin
  t1 := x * x + a * 3.0;
  t2 := (x + a) * (x - a);
  t3 := t1 * t2 + x * 0.5;
  t4 := t3 * a + (t1 - t2) * (t1 + t2);
  p := t4 + t3 * x;
  while p < a do
  begin
    p := p + t1 * 0.125;
  end;
  y := p + {c};
end
"""

FU4 = ResourceConstraints({"fu": 4})


@pytest.mark.parametrize("baseline_options,options", [
    (SynthesisOptions(), OPTIONS),
    (SynthesisOptions(scheduler="list", constraints=FU4),
     SynthesisOptions(scheduler="force-directed", constraints=FU4)),
    (SynthesisOptions(scheduler="force-directed", constraints=FU4),
     SynthesisOptions(scheduler="list", constraints=FU4)),
], ids=["constraints", "list-to-force-directed", "force-directed-to-list"])
def test_mismatched_baseline_options_fall_back_cleanly(baseline_options,
                                                      options):
    """A baseline built under other constraints or another scheduler
    replays nothing: every block is scheduled fresh — never an error,
    never a design that differs from full synthesis."""
    base, edited = WIDE_SOURCE.format(c="0.5"), WIDE_SOURCE.format(c="0.25")
    baseline = synthesize(base, options=baseline_options)
    assert baseline.stage_signatures()["scheduling"] \
        != synthesize(base, options=options).stage_signatures()["scheduling"]
    report = resynthesize(baseline, edited, options=options, verify=True)
    assert report.verified is True
    assert report.replayed_blocks == []
    assert metrics().counter("engine.blocks.replayed").value == 0


#: ``PIPE_SOURCE`` in 16-bit integers, for range narrowing.
INT_SOURCE = """
procedure pipe16(input x: int<16>; input a: int<16>; output y: int<16>);
var t1, t2, t3, p: int<16>;
begin
  t1 := x * x + 3 * x;
  t2 := t1 * x - 2 * t1;
  t3 := t2 + t1 * 5;
  p := t3 + t2;
  while p < a do
  begin
    p := p + t1 + 1;
  end;
  y := p + {c};
end
"""


def test_narrowed_edit_replays_unchanged_blocks():
    """The edited program is narrowed before it is diffed, like the
    baseline was, so narrowing does not make every block dirty."""
    options = SynthesisOptions(
        constraints=ResourceConstraints({"fu": 2}), narrow=True,
        assume_ranges=(("x", 0, 7), ("a", 0, 200)),
    )
    baseline = synthesize(INT_SOURCE.format(c="1"), options=options)
    edited = INT_SOURCE.format(c="2")
    report = resynthesize(baseline, edited, options=options, verify=True)
    assert report.verified is True
    assert len(report.delta.unchanged) == 3
    assert report.replayed_blocks == report.delta.unchanged
    assert report.design.stage_signatures() \
        == synthesize(edited, options=options).stage_signatures()


def test_resynthesize_from_cache_uses_the_store(tmp_path):
    store = configure_store(tmp_path / "designs")
    report = resynthesize_from_cache(BASE, EDITED, options=OPTIONS,
                                     verify=True)
    assert report.verified is True
    # Baseline and (verified) incremental result are both persisted.
    assert store.stats()["entries"] == 2

    # A fresh "process" (cleared LRU) finds the baseline on disk.
    from repro.core import clear_synthesis_cache
    clear_synthesis_cache()
    hits_before = metrics().counter("store.hits").value
    second = resynthesize_from_cache(BASE, EDITED, options=OPTIONS)
    assert metrics().counter("store.hits").value > hits_before
    assert second.design.stage_signatures() \
        == report.design.stage_signatures()


def test_unverified_incremental_result_is_not_persisted(tmp_path):
    store = configure_store(tmp_path / "designs")
    report = resynthesize_from_cache(BASE, EDITED, options=OPTIONS,
                                     verify=False)
    assert report.verified is None
    # Only the baseline was recorded: the store must never serve a
    # design that was not proven equivalent to full synthesis.
    assert store.stats()["entries"] == 1
