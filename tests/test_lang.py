"""Frontend tests: lexer, parser, semantic analysis and lowering."""

import pytest

from repro.errors import LexError, ParseError, SemanticError, SourceLocation
from repro.ir import IntType, OpKind
from repro.ir.types import ArrayType, FixedType
from repro.lang import compile_source, parse, tokenize
from repro.lang.tokens import TokenKind


class TestLexer:
    def test_keywords_and_idents(self):
        tokens = tokenize("procedure foo while whilex")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.PROCEDURE,
            TokenKind.IDENT,
            TokenKind.WHILE,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    def test_numbers(self):
        tokens = tokenize("42 3.25")
        assert tokens[0].kind == TokenKind.INT
        assert tokens[1].kind == TokenKind.REAL

    def test_operators(self):
        tokens = tokenize(":= <= >= /= << >> < >")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == [
            TokenKind.ASSIGN, TokenKind.LE, TokenKind.GE, TokenKind.NE,
            TokenKind.SHL, TokenKind.SHR, TokenKind.LT, TokenKind.GT,
        ]

    def test_line_comments(self):
        tokens = tokenize("a -- comment\nb")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_brace_comments(self):
        tokens = tokenize("a { comment\nspanning lines } b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_brace_comment(self):
        with pytest.raises(LexError):
            tokenize("a { never closed")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_locations(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_empty_input(self):
        tokens = tokenize("")
        assert tokens[0].kind is TokenKind.EOF


MINIMAL = """
procedure p(input a: int<8>; output b: int<8>);
begin
  b := a;
end
"""


class TestParser:
    def test_minimal_procedure(self):
        program = parse(MINIMAL)
        proc = program.procedures[0]
        assert proc.name == "p"
        assert [p.direction for p in proc.params] == ["input", "output"]

    def test_precedence_mul_over_add(self):
        program = parse("""
procedure p(input a: int<8>; output b: int<8>);
begin
  b := a + a * a;
end
""")
        assign = program.procedures[0].body[0]
        assert assign.value.op == "+"
        assert assign.value.right.op == "*"

    def test_parentheses(self):
        program = parse("""
procedure p(input a: int<8>; output b: int<8>);
begin
  b := (a + a) * a;
end
""")
        assign = program.procedures[0].body[0]
        assert assign.value.op == "*"

    def test_types(self):
        program = parse("""
procedure p(input a: fixed<16,8>; output b: uint<4>);
var m: int<8>[32];
begin
  b := 0;
end
""")
        proc = program.procedures[0]
        assert proc.params[0].type == FixedType(16, 8)
        assert proc.params[1].type == IntType(4, signed=False)
        assert proc.decls[0].type == ArrayType(IntType(8), 32)

    def test_control_statements(self):
        program = parse("""
procedure p(input a: int<8>; output b: int<8>);
var i: int<8>;
begin
  if a > 0 then b := 1 else b := 2;
  while a > 0 do b := b + 1;
  repeat b := b - 1; until b = 0;
  for i := 0 to 7 do b := b + i;
end
""")
        body = program.procedures[0].body
        assert len(body) == 4

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("procedure p() begin end")

    def test_garbage_statement(self):
        with pytest.raises(ParseError):
            parse("""
procedure p(input a: int<8>; output b: int<8>);
begin
  42 := a;
end
""")

    def test_multiple_procedures(self):
        program = parse(MINIMAL + MINIMAL.replace("p(", "q("))
        assert [p.name for p in program.procedures] == ["p", "q"]


class TestLowering:
    def test_minimal(self):
        cdfg = compile_source(MINIMAL)
        assert cdfg.name == "p"
        assert len(cdfg.blocks()) == 1

    def test_block_local_renaming(self):
        """A variable assigned then read in one block wires directly —
        only upward-exposed reads become VAR_READ ops."""
        cdfg = compile_source("""
procedure p(input a: int<8>; output b: int<8>);
var t: int<8>;
begin
  t := a + 1;
  b := t + t;
end
""")
        block = cdfg.blocks()[0]
        reads = [op.attrs["var"] for op in block.ops
                 if op.kind is OpKind.VAR_READ]
        assert reads == ["a"]

    def test_var_read_deduplicated(self):
        cdfg = compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  b := a + a;
end
""")
        block = cdfg.blocks()[0]
        reads = [op for op in block.ops if op.kind is OpKind.VAR_READ]
        assert len(reads) == 1

    def test_literal_adopts_context_type(self):
        cdfg = compile_source("""
procedure p(input a: uint<3>; output b: uint<3>);
begin
  b := a + 1;
end
""")
        block = cdfg.blocks()[0]
        const = next(op for op in block.ops if op.kind is OpKind.CONST)
        assert const.result.type == IntType(3, signed=False)

    def test_real_literal_quantized(self):
        cdfg = compile_source("""
procedure p(input a: fixed<16,4>; output b: fixed<16,4>);
begin
  b := a * 0.3;
end
""")
        const = next(
            op for op in cdfg.blocks()[0].ops if op.kind is OpKind.CONST
        )
        assert const.attrs["value"] == pytest.approx(0.3125)

    def test_repeat_until_shape(self):
        cdfg = compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  b := 0;
  repeat
    b := b + 1;
  until b > a;
end
""")
        loop = cdfg.loops()[0]
        assert loop.test_in_body
        assert loop.exit_on_true
        # The exit comparison lives inside the body's block.
        assert loop.cond.producer.block is loop.test_block

    def test_while_shape(self):
        cdfg = compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  b := 0;
  while b < a do b := b + 1;
end
""")
        loop = cdfg.loops()[0]
        assert not loop.test_in_body
        assert not loop.exit_on_true

    def test_for_has_trip_count(self):
        cdfg = compile_source("""
procedure p(input a: int<8>; output b: int<8>);
var i: int<8>;
begin
  b := 0;
  for i := 0 to 9 do b := b + a;
end
""")
        assert cdfg.loops()[0].trip_count == 10

    def test_for_downto(self):
        cdfg = compile_source("""
procedure p(input a: int<8>; output b: int<8>);
var i: int<8>;
begin
  b := 0;
  for i := 9 downto 2 do b := b + a;
end
""")
        assert cdfg.loops()[0].trip_count == 8

    def test_if_else_regions(self):
        from repro.ir import IfRegion

        cdfg = compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  if a > 0 then b := 1 else b := 2;
end
""")
        regions = [r for r in cdfg.body.walk() if isinstance(r, IfRegion)]
        assert len(regions) == 1
        assert regions[0].else_region is not None

    def test_arrays_lower_to_load_store(self):
        cdfg = compile_source("""
procedure p(input a: int<8>; output b: int<8>);
var m: int<8>[4];
begin
  m[0] := a;
  b := m[0];
end
""")
        kinds = [op.kind for op in cdfg.blocks()[0].ops]
        assert OpKind.STORE in kinds
        assert OpKind.LOAD in kinds

    def test_inlining(self):
        cdfg = compile_source("""
procedure double(input x: int<8>; output y: int<8>);
begin
  y := x + x;
end

procedure main(input a: int<8>; output b: int<8>);
var t: int<8>;
begin
  double(a, t);
  b := t + 1;
end
""", procedure="main")
        # The callee's body was expanded inline: no call remains, and
        # mangled variables exist.
        assert any("double$" in name for name in cdfg.variables)

    def test_recursion_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("""
procedure loop(input a: int<8>; output b: int<8>);
begin
  loop(a, b);
end
""")

    def test_wrong_arity_call(self):
        with pytest.raises(SemanticError):
            compile_source("""
procedure f(input x: int<8>; output y: int<8>);
begin
  y := x;
end

procedure main(input a: int<8>; output b: int<8>);
begin
  f(a);
end
""", procedure="main")


class TestSemanticErrors:
    def test_undeclared_variable(self):
        with pytest.raises(SemanticError):
            compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  b := nope;
end
""")

    def test_assign_to_input(self):
        with pytest.raises(SemanticError):
            compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  a := 1;
end
""")

    def test_array_without_index(self):
        with pytest.raises(SemanticError):
            compile_source("""
procedure p(input a: int<8>; output b: int<8>);
var m: int<8>[4];
begin
  b := m;
end
""")

    def test_index_on_scalar(self):
        with pytest.raises(SemanticError):
            compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  b := a[0];
end
""")

    def test_condition_must_be_boolean(self):
        with pytest.raises(SemanticError):
            compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  if a then b := 1;
end
""")

    def test_not_needs_boolean(self):
        with pytest.raises(SemanticError):
            compile_source("""
procedure p(input a: int<8>; output b: int<8>);
begin
  if not a then b := 1;
end
""")


DECLARED = """
procedure p(input a: int<8>; output b: fixed<16,8>);
var m: {type};
begin
  b := {literal};
end
"""


@pytest.mark.parametrize("declared,literal,error", [
    ("int<0>", "1", SemanticError),
    ("fixed<4,8>", "1", SemanticError),
    ("int<8>[0]", "1", SemanticError),
    ("int<8>", "\N{SUPERSCRIPT TWO}", LexError),
    ("int<8>", "9" * 4301, ParseError),
    ("int<8>", "1" + "0" * 400 + ".5", ParseError),
], ids=["zero-width", "frac-over-width", "empty-array", "superscript",
        "int-string-limit", "real-overflow"])
def test_invalid_inputs_raise_located_frontend_errors(declared, literal,
                                                      error):
    from repro import synthesize

    source = DECLARED.format(type=declared, literal=literal)
    with pytest.raises(error) as raised:
        synthesize(source)
    assert raised.value.location is not None


NAMED = """
procedure p(input {name}: int<8>; output b: int<8>);
begin
  b := {name};
end
"""


@pytest.mark.parametrize("name,offset", [
    ("a\N{SUPERSCRIPT TWO}", 1),
    ("tmp\N{LATIN SMALL LETTER E WITH ACUTE}", 3),
    ("\N{GREEK SMALL LETTER ALPHA}", 0),
    ("\N{FULLWIDTH LATIN SMALL LETTER X}", 0),
], ids=["superscript-digit", "accented-letter", "greek-letter",
        "fullwidth-letter"])
def test_identifiers_are_ascii_only(name, offset):
    """Names reach the Verilog and VHDL text, so only
    ``[A-Za-z_][A-Za-z0-9_]*`` lexes as an identifier."""
    with pytest.raises(LexError, match="unexpected character") as raised:
        compile_source(NAMED.format(name=name))
    # "procedure p(input " is 18 characters wide.
    assert raised.value.location == SourceLocation(2, 19 + offset)


def test_non_ascii_decimal_digits_still_lex():
    # Every character str.isdecimal() accepts converts with int().
    tokens = tokenize("\N{ARABIC-INDIC DIGIT THREE}2")
    assert tokens[0].kind is TokenKind.INT
    assert int(tokens[0].text) == 32
