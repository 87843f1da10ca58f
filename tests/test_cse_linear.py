"""CSE in linear time, with exactly the result of the one-at-a-time loop.

CSE used to remove each merged op on its own: a scan of every operand's
use list and of the block's op list per op, and a walk of the whole
region tree per merge.  On the 10⁴-operator ``mixed`` chain, whose four
inputs feed thousands of ops each, that was quadratic.  It now removes
all merged ops of a block in one pass and indexes the loop and if
conditions once per run.  The surviving ops, their order, every use
list's order and every region condition must equal the old loop's
(``ReferenceCSE``), and a deterministic count of the list entries the
pass touches must stay linear in the size of the block.
"""

from __future__ import annotations

import pytest

from repro.ir.cdfg import IfRegion, LoopRegion
from repro.lang import compile_source
from repro.transforms import standard_pipeline
from repro.transforms.cse import CommonSubexpressionElimination
from repro.workloads import DIFFEQ_SOURCE, SQRT_SOURCE, fir_source

from .test_analysis_parity import ReferenceCSE, reference_pipeline
from .test_deep_programs import FLAT
from .test_integration_programs import PROGRAMS

#: The second ``a < b`` is the if's condition; CSE merges it into the
#: first, so the region's condition must move with it.
MERGED_CONDITION = """
procedure p(input a, b: int<16>; output o, x, y: int<16>);
begin
  x := a < b;
  y := (a + b) * (a + b) - (a + b);
  if a < b then o := a + b; else o := a - b;
  while a + b < x do x := x - 1;
end
"""

SOURCES = {
    "sqrt": SQRT_SOURCE,
    "diffeq": DIFFEQ_SOURCE,
    "fir8": fir_source(8),
    "mixed-1000": FLAT["mixed"](1000),
    "merged-condition": MERGED_CONDITION,
    **{f"program-{name}": source
       for name, (source, _vectors) in PROGRAMS.items()},
}


def snapshot(cdfg) -> tuple:
    """Op order, operands and use-list order of every block, and the
    condition of every region, by id."""
    blocks = []
    for block in cdfg.blocks():
        ops = []
        for op in block.ops:
            uses = (None if op.result is None else
                    [(user.id, index) for user, index in op.result.uses])
            ops.append((op.id, [value.id for value in op.operands], uses))
        blocks.append((block.id, ops))
    conditions = [region.cond.id for region in cdfg.body.walk()
                  if isinstance(region, (IfRegion, LoopRegion))]
    return blocks, conditions


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_one_pass_equals_the_reference_loop(name):
    reference = compile_source(SOURCES[name])
    linear = compile_source(SOURCES[name])
    assert ReferenceCSE().run(reference) == \
        CommonSubexpressionElimination().run(linear)
    assert snapshot(linear) == snapshot(reference)
    linear.validate()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_pipeline_equals_the_reference_pipeline(name):
    reference = compile_source(SOURCES[name])
    linear = compile_source(SOURCES[name])
    reference_pipeline().run(reference)
    standard_pipeline().run(linear)
    assert snapshot(linear) == snapshot(reference)


def test_merged_condition_moves_to_the_surviving_value():
    cdfg = compile_source(MERGED_CONDITION)
    before = snapshot(cdfg)[1]
    assert CommonSubexpressionElimination().run(cdfg)
    assert snapshot(cdfg)[1] != before
    cdfg.validate()


class CountingList(list):
    """A list that counts the entries its scans touch: every entry an
    iteration yields, and the whole list on each ``remove`` (the search
    up to the entry plus the shift after it)."""

    touched = 0

    def __iter__(self):
        for item in super().__iter__():
            CountingList.touched += 1
            yield item

    def remove(self, item) -> None:
        CountingList.touched += len(self)
        super().remove(item)


def test_work_is_linear_on_the_longest_mixed_chain():
    cdfg = compile_source(FLAT["mixed"](10_000))
    (block,) = cdfg.blocks()
    entries = len(block.ops)
    block.ops = CountingList(block.ops)
    for op in block.ops:
        if op.result is not None:
            entries += len(op.result.uses)
            op.result.uses = CountingList(op.result.uses)
    CountingList.touched = 0
    ops_before = len(block.ops)

    assert CommonSubexpressionElimination().run(cdfg)
    assert ops_before - len(block.ops) > 4_000  # the merges are real
    # The one-at-a-time removal touched about 5 * 10⁷ entries here.
    assert CountingList.touched <= 4 * entries


def test_conditions_are_indexed_once_per_run(monkeypatch):
    cdfg = compile_source(MERGED_CONDITION)
    ops_before = cdfg.count_ops()
    walks = []
    original = IfRegion.walk

    def counting_walk(self):
        walks.append(self)
        return original(self)

    monkeypatch.setattr(IfRegion, "walk", counting_walk)
    assert CommonSubexpressionElimination().run(cdfg)
    assert ops_before - cdfg.count_ops() >= 3  # merges, each a walk before
    assert len(walks) == 1
