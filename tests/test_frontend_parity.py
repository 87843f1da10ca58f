"""The one-regex lexer and the precedence-climbing parser against the
character-at-a-time lexer and the recursive expression descent they
replaced (``tests/lang_oracles.py``).

Tokens are compared as (kind, text, line, column) tuples, ASTs by
dataclass equality (source locations included), and errors by type,
message and location.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError, ParseError, SourceLocation
from repro.lang import ast, parse, tokenize
from repro.workloads import DIFFEQ_SOURCE, SQRT_SOURCE, fir_source

from .lang_oracles import reference_parse, reference_tokenize
from .test_integration_programs import PROGRAMS
from .test_vhdl_and_random_programs import random_program

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _lexed(lex, source: str):
    try:
        return [(t.kind, t.text, t.location.line, t.location.column)
                for t in lex(source)]
    except LexError as error:
        return ("LexError", str(error), error.location)


def _parsed(parse_source, source: str):
    try:
        return parse_source(source)
    except (LexError, ParseError) as error:
        return (type(error).__name__, str(error), error.location)


def _assert_same_front_end(source: str) -> None:
    assert _lexed(tokenize, source) == _lexed(reference_tokenize, source)
    assert _parsed(parse, source) == _parsed(reference_parse, source)


PROGRAM_SOURCES = {
    "sqrt": SQRT_SOURCE,
    "diffeq": DIFFEQ_SOURCE,
    "fir8": fir_source(8),
    **{f"example-{path.stem}": path.read_text()
       for path in sorted(EXAMPLES.glob("*.hls"))},
    **{f"program-{name}": source for name, (source, _) in PROGRAMS.items()},
    **{f"random-{seed}": random_program(seed, statements=6)
       for seed in (1, 7, 42, 1234)},
}


@pytest.mark.parametrize("name", sorted(PROGRAM_SOURCES))
def test_programs_lex_and_parse_identically(name):
    source = PROGRAM_SOURCES[name]
    _assert_same_front_end(source)
    assert not isinstance(_parsed(parse, source), tuple)


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------

_LEX_FRAGMENTS = st.sampled_from([
    *"abzAZ_09.:=<>/+-*&|^~()[],;{} \n",
    "\t", "\r", "--", ":=", "<=", "/=", "<<", ">>", "1.5", "if", "mod",
    "and", "not", "procedure",
    "\N{ARABIC-INDIC DIGIT THREE}", "\N{SUPERSCRIPT TWO}",
    "\N{LATIN SMALL LETTER E WITH ACUTE}", "@", "!",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(_LEX_FRAGMENTS, max_size=40).map("".join))
def test_lexer_matches_reference(source):
    assert _lexed(tokenize, source) == _lexed(reference_tokenize, source)


@pytest.mark.parametrize("source", [
    "", "   ", "a\r\n\tb", "x -- to the end", "{ a\n b } c\n",
    "a { never\n closed", "}", "12.5.3", "3.", ".5", "a٣2 ٣2",
    "tmpé", "<<=>>=", "a--b", "---", "{}{}", "-- a\n{\n}\n-- b",
])
def test_lexer_edge_cases(source):
    assert _lexed(tokenize, source) == _lexed(reference_tokenize, source)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

_CONTEXTS = [
    "begin o := {}; end",
    "begin if {} then o := a; end",
    "begin while {} do o := a; end",
    "begin m[{}] := a; end",
]


def _program(expression: str, context: int = 0) -> str:
    return (
        "procedure p(input a, b: int<8>; output o: int<8>);\n"
        "var m: int<8>[4];\n" + _CONTEXTS[context].format(expression) + "\n"
    )


_ATOMS = st.sampled_from(["a", "b", "o", "7", "0.5", "m[a]", "m[a + 1]"])
_BINARY = st.sampled_from([
    "or", "and", "=", "/=", "<", "<=", ">", ">=", "+", "-", "|", "^",
    "*", "/", "mod", "&", "<<", ">>",
])
_PREFIXES = st.sampled_from(["-", "~", "not", "- -", "not not"])

_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, _BINARY, inner).map(" ".join),
        st.tuples(_PREFIXES, inner).map(" ".join),
        inner.map(lambda text: f"({text})"),
        inner.map(lambda text: f"m[{text}]"),
    ),
    max_leaves=12,
)

# Operator chains without parentheses, where the continuation rules
# (no chained comparisons, nothing tighter than ``and`` after ``not``)
# decide where an expression ends.
_FLAT_CHAINS = st.tuples(
    _ATOMS,
    st.lists(st.tuples(_BINARY, st.sampled_from(["", "-", "not"]), _ATOMS)
             .map(" ".join), max_size=6),
).map(lambda chain: " ".join([chain[0], *chain[1]]))

_TOKEN_SOUP = st.lists(
    st.one_of(_ATOMS, _BINARY, _PREFIXES, st.sampled_from(["(", ")", "["])),
    min_size=1, max_size=14,
).map(" ".join)


@settings(max_examples=400, deadline=None)
@given(_EXPRESSIONS, st.integers(0, len(_CONTEXTS) - 1))
def test_parser_matches_reference_on_grammar_expressions(expression,
                                                         context):
    _assert_same_front_end(_program(expression, context))


@settings(max_examples=400, deadline=None)
@given(_FLAT_CHAINS, st.integers(0, len(_CONTEXTS) - 1))
def test_parser_matches_reference_on_flat_chains(expression, context):
    _assert_same_front_end(_program(expression, context))


@settings(max_examples=400, deadline=None)
@given(_TOKEN_SOUP, st.integers(0, len(_CONTEXTS) - 1))
def test_parser_matches_reference_on_token_soup(expression, context):
    _assert_same_front_end(_program(expression, context))


def _assignment_rhs(source: str) -> ast.Expr:
    (stmt,) = parse(source).procedures[0].body
    return stmt.value


@pytest.mark.parametrize("expression,found", [
    ("a and b > c <= d", "<="),
    ("not a < b < c", "<"),
    ("a < not b", "not"),
])
def test_non_chaining_operators_are_rejected_like_the_reference(
        expression, found):
    source = _program(expression)
    _assert_same_front_end(source)
    with pytest.raises(ParseError, match=f"found '{found}'") as raised:
        parse(source)
    # The error sits at the last occurrence of ``found``; the expression
    # starts after "begin o := " on line 3.
    column = len("begin o := ") + expression.rindex(found) + 1
    assert raised.value.location == SourceLocation(3, column)


def test_unary_chain_binds_tighter_than_multiplication():
    source = _program("- - a * b")
    _assert_same_front_end(source)
    expr = _assignment_rhs(source)
    assert isinstance(expr, ast.Binary) and expr.op == "*"
    assert isinstance(expr.left, ast.Unary) and expr.left.op == "-"
    assert isinstance(expr.left.operand, ast.Unary)
    assert isinstance(expr.left.operand.operand, ast.VarRef)
