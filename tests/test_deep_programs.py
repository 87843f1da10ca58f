"""A ladder of long and deeply nested programs, from 10 to 10⁴ operators.

Flat operator chains are parsed, lowered, inlined and rebalanced in
loops, so every size compiles, and the chains synthesize (with and
without tree-height reduction) and emit Verilog.  Parentheses, unary
prefixes and compound statements still recurse; past ``MAX_NESTING``
levels they are rejected with a located :class:`ParseError`, and up to
it they synthesize too.  No case may raise ``RecursionError``.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro.core import SynthesisOptions, synthesize_cdfg
from repro.errors import ParseError
from repro.lang import compile_source
from repro.lang.parser import MAX_NESTING
from repro.rtl import emit_verilog
from repro.scheduling import ResourceConstraints

SIZES = [10, 100, 1000, 10000]

HEADER = ("procedure p(input a0, a1, a2, a3: int<16>; "
          "output o: int<16>);\n")


def _assign(expression: str) -> str:
    return HEADER + f"begin\n  o := {expression};\nend\n"


def _chain(n: int, operators: list[str]) -> str:
    """``a0 op a1 op a2 …`` with ``n`` operators, cycling ``operators``."""
    parts = ["a0"]
    for index in range(n):
        parts += [operators[index % len(operators)], f"a{(index + 1) % 4}"]
    return _assign(" ".join(parts))


def _nested_if(n: int) -> str:
    body = "o := a1"
    for index in range(n):
        body = (f"if a{index % 4} > a{(index + 1) % 4} then\n"
                f"begin {body}; end")
    return HEADER + f"begin\n  o := a0;\n  {body};\nend\n"


def _inlined_sum(n: int) -> str:
    terms = " + ".join("x" if index % 2 else "y" for index in range(n + 1))
    return (
        "procedure q(input x, y: int<16>; output r: int<16>);\n"
        f"begin\n  r := {terms};\nend\n"
        + HEADER + "begin\n  q(a0, a1, o);\nend\n"
    )


FLAT = {
    "flat-add": lambda n: _chain(n, ["+"]),
    "flat-mul": lambda n: _chain(n, ["*"]),
    "mixed": lambda n: _chain(n, ["+", "*", "-", "*", "&", "|"]),
}

NESTED = {
    "parentheses": lambda n: _assign("(" * n + "a0" + ")" * n),
    "right-nested": lambda n: _assign("a0 - (" * n + "a1" + ")" * n),
    "unary": lambda n: _assign("- " * n + "a0"),
    "nested-if": _nested_if,
}


def _synthesize(source: str, tree_height: bool):
    return synthesize_cdfg(compile_source(source), SynthesisOptions(
        scheduler="list", allocator="left-edge",
        constraints=ResourceConstraints({"fu": 4}),
        tree_height=tree_height,
    ))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("shape", sorted(FLAT))
def test_flat_chains_synthesize_at_every_size(shape, n):
    source = FLAT[shape](n)
    plain = _synthesize(source, tree_height=False)
    assert "module" in emit_verilog(plain)
    _synthesize(source, tree_height=True)


def test_longest_chain_design_pickles_at_the_default_recursion_limit():
    # The store and the parallel explorer pickle designs; a def-use
    # chain must not nest the pickle one level per operator.
    design = _synthesize(FLAT["flat-add"](SIZES[-1]), tree_height=False)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        loaded = pickle.loads(
            pickle.dumps(design, protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        sys.setrecursionlimit(limit)
    assert loaded.stage_signatures() == design.stage_signatures()
    assert emit_verilog(loaded) == emit_verilog(design)
    loaded.cdfg.validate()


@pytest.mark.parametrize("n", SIZES)
def test_inlined_callee_with_a_long_sum_compiles(n):
    cdfg = compile_source(_inlined_sum(n))
    assert sum(len(block.ops) for block in cdfg.blocks()) > n


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_is_accepted_or_rejected_with_a_location(shape, n):
    source = NESTED[shape](n)
    if n > MAX_NESTING:
        with pytest.raises(ParseError, match="nesting deeper than") as raised:
            compile_source(source)
        assert raised.value.location is not None
        return
    compile_source(source)
    assert "module" in emit_verilog(_synthesize(source, tree_height=False))


def test_nesting_limit_is_exact():
    compile_source(NESTED["parentheses"](MAX_NESTING))
    with pytest.raises(ParseError) as raised:
        compile_source(NESTED["parentheses"](MAX_NESTING + 1))
    # The 101st "(" opens the level past the limit; "  o := " is 7 wide.
    assert (raised.value.location.line,
            raised.value.location.column) == (3, 8 + MAX_NESTING)
