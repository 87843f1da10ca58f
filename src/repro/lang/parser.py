"""Parser for the behavioral specification language.

Declarations and statements are parsed by recursive descent,
expressions by precedence climbing: one loop per operand over a single
table of binary operator levels, so a flat chain such as
``a0 + a1 + … + an`` costs no recursion per operator.

Grammar (EBNF, ``;`` separators Pascal-style):

.. code-block:: text

    program    = procedure { procedure } ;
    procedure  = "procedure" IDENT "(" [ params ] ")" ";"
                 [ "var" { varline } ] block [ ";" ] ;
    params     = param { ";" param } ;
    param      = ( "input" | "output" ) identlist ":" type ;
    varline    = identlist ":" type ";" ;
    identlist  = IDENT { "," IDENT } ;
    type       = ( "int" | "uint" ) "<" INT ">" [ "[" INT "]" ]
               | ( "fixed" | "ufixed" ) "<" INT "," INT ">" [ "[" INT "]" ] ;
    block      = "begin" { statement ";" } "end" ;
    statement  = assign | ifstmt | whilestmt | repeatstmt | forstmt
               | call | block ;
    assign     = lvalue ":=" expr ;
    lvalue     = IDENT [ "[" expr "]" ] ;
    ifstmt     = "if" expr "then" body [ "else" body ] ;
    whilestmt  = "while" expr "do" body ;
    repeatstmt = "repeat" { statement ";" } "until" expr ;
    forstmt    = "for" IDENT ":=" expr ( "to" | "downto" ) expr "do" body ;
    call       = IDENT "(" [ expr { "," expr } ] ")" ;
    body       = statement | block ;

Expression precedence, loosest first: ``or``; ``and``; ``not``;
comparisons; ``+ - | ^``; ``* / mod & << >>``; unary ``- ~``; primary.
Binary operators associate to the left; comparisons do not chain, and
``not`` takes a comparison (or another ``not``) as its operand.

Parentheses, index expressions, unary prefixes and compound statements
still recurse, here and in every later walk of the tree, so nesting
them deeper than :data:`MAX_NESTING` levels is a :class:`ParseError`
at the token that opens the extra level.
"""

from __future__ import annotations

import math

from ..errors import ParseError, SemanticError
from ..ir.types import ArrayType, FixedType, IntType, Type
from . import ast
from .lexer import tokenize
from .tokens import Token, TokenKind

# Binary operator -> (AST operator, precedence level); higher binds
# tighter.  ``not`` is a prefix at level 3 and unary ``- ~`` bind
# tighter than every binary level.
_BINARY = {
    TokenKind.OR: ("or", 1),
    TokenKind.AND: ("and", 2),
    TokenKind.EQ: ("=", 4),
    TokenKind.NE: ("/=", 4),
    TokenKind.LT: ("<", 4),
    TokenKind.LE: ("<=", 4),
    TokenKind.GT: (">", 4),
    TokenKind.GE: (">=", 4),
    TokenKind.PLUS: ("+", 5),
    TokenKind.MINUS: ("-", 5),
    TokenKind.PIPE: ("|", 5),
    TokenKind.CARET: ("^", 5),
    TokenKind.STAR: ("*", 6),
    TokenKind.SLASH: ("/", 6),
    TokenKind.MOD: ("mod", 6),
    TokenKind.AMP: ("&", 6),
    TokenKind.SHL: ("<<", 6),
    TokenKind.SHR: (">>", 6),
}
_AND_LEVEL = 2
_NOT_LEVEL = 3
_COMPARISON_LEVEL = 4
_TIGHTEST_LEVEL = 6

#: Deepest nesting of parentheses, index expressions, unary prefixes
#: and compound statements (``if``, ``while``, ``repeat``, ``for``)
#: the parser accepts; the recursive walks of the tree stay well
#: inside Python's default recursion limit at this depth.
MAX_NESTING = 100


def _int_value(token: Token) -> int:
    """The value of an INT token (CPython caps int() at 4300 digits)."""
    try:
        return int(token.text)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(token.text)} digits is too long",
            token.location,
        ) from None


def _checked_type(token: Token, constructor, *args, **kwargs) -> Type:
    """``constructor(*args, **kwargs)``, its parameter checks reported
    as a :class:`SemanticError` at ``token``."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as error:
        raise SemanticError(str(error), token.location) from None


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {token.text or 'end of input'!r}",
                token.location,
            )
        return self._advance()

    def _nest(self, token: Token) -> None:
        """Open one more level of nesting at ``token``; the caller
        closes it with ``self._depth -= 1`` once the level is parsed."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             token.location)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        procedures = [self.parse_procedure()]
        while self._check(TokenKind.PROCEDURE):
            procedures.append(self.parse_procedure())
        self._expect(TokenKind.EOF)
        return ast.Program(procedures)

    def parse_procedure(self) -> ast.Procedure:
        start = self._expect(TokenKind.PROCEDURE)
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if not self._check(TokenKind.RPAREN):
            params.extend(self._parse_param_group())
            while self._accept(TokenKind.SEMICOLON):
                params.extend(self._parse_param_group())
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMICOLON)
        decls: list[ast.VarDecl] = []
        while self._accept(TokenKind.VAR):
            while self._check(TokenKind.IDENT):
                decls.extend(self._parse_var_line())
        body = self._parse_block()
        self._accept(TokenKind.SEMICOLON)
        return ast.Procedure(name, params, decls, body, start.location)

    def _parse_param_group(self) -> list[ast.Param]:
        token = self._peek()
        if self._accept(TokenKind.INPUT):
            direction = "input"
        elif self._accept(TokenKind.OUTPUT):
            direction = "output"
        else:
            raise ParseError(
                f"expected 'input' or 'output', found {token.text!r}",
                token.location,
            )
        names = self._parse_ident_list()
        self._expect(TokenKind.COLON)
        type_ = self._parse_type()
        return [
            ast.Param(name, type_, direction, token.location) for name in names
        ]

    def _parse_var_line(self) -> list[ast.VarDecl]:
        start = self._peek()
        names = self._parse_ident_list()
        self._expect(TokenKind.COLON)
        type_ = self._parse_type()
        self._expect(TokenKind.SEMICOLON)
        return [ast.VarDecl(name, type_, start.location) for name in names]

    def _parse_ident_list(self) -> list[str]:
        names = [self._expect(TokenKind.IDENT).text]
        while self._accept(TokenKind.COMMA):
            names.append(self._expect(TokenKind.IDENT).text)
        return names

    def _parse_type(self) -> Type:
        token = self._advance()
        if token.kind in (TokenKind.INT_TYPE, TokenKind.UINT_TYPE):
            self._expect(TokenKind.LT)
            width = self._parse_int()
            self._expect(TokenKind.GT)
            base: Type = _checked_type(
                token, IntType, width,
                signed=token.kind is TokenKind.INT_TYPE,
            )
        elif token.kind in (TokenKind.FIXED_TYPE, TokenKind.UFIXED_TYPE):
            self._expect(TokenKind.LT)
            width = self._parse_int()
            self._expect(TokenKind.COMMA)
            frac = self._parse_int()
            self._expect(TokenKind.GT)
            base = _checked_type(
                token, FixedType, width, frac,
                signed=token.kind is TokenKind.FIXED_TYPE,
            )
        else:
            raise ParseError(f"expected a type, found {token.text!r}",
                             token.location)
        if self._accept(TokenKind.LBRACKET):
            length = self._expect(TokenKind.INT)
            self._expect(TokenKind.RBRACKET)
            return _checked_type(length, ArrayType, base,
                                 _int_value(length))
        return base

    def _parse_int(self) -> int:
        return _int_value(self._expect(TokenKind.INT))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_block(self) -> list[ast.Stmt]:
        self._expect(TokenKind.BEGIN)
        stmts = self._parse_statements_until(TokenKind.END)
        self._expect(TokenKind.END)
        return stmts

    def _parse_statements_until(self, *stop: TokenKind) -> list[ast.Stmt]:
        stmts: list[ast.Stmt] = []
        while self._peek().kind not in stop:
            stmts.append(self._parse_statement())
            if not self._accept(TokenKind.SEMICOLON):
                break
        return stmts

    def _parse_body(self) -> list[ast.Stmt]:
        """A loop/branch body: either one statement or a begin/end block."""
        if self._check(TokenKind.BEGIN):
            return self._parse_block()
        return [self._parse_statement()]

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.IDENT:
            return self._parse_assign_or_call()
        if token.kind is TokenKind.IF:
            parse_compound = self._parse_if
        elif token.kind is TokenKind.WHILE:
            parse_compound = self._parse_while
        elif token.kind is TokenKind.REPEAT:
            parse_compound = self._parse_repeat
        elif token.kind is TokenKind.FOR:
            parse_compound = self._parse_for
        else:
            raise ParseError(f"expected a statement, found {token.text!r}",
                             token.location)
        self._nest(token)
        stmt = parse_compound()
        self._depth -= 1
        return stmt

    def _parse_if(self) -> ast.Stmt:
        start = self._expect(TokenKind.IF)
        cond = self.parse_expr()
        self._expect(TokenKind.THEN)
        then_body = self._parse_body()
        else_body: list[ast.Stmt] = []
        # Tolerate the common `...; else` spelling.
        if (
            self._check(TokenKind.SEMICOLON)
            and self._tokens[self._index + 1].kind is TokenKind.ELSE
        ):
            self._advance()
        if self._accept(TokenKind.ELSE):
            else_body = self._parse_body()
        return ast.If(start.location, cond, then_body, else_body)

    def _parse_while(self) -> ast.Stmt:
        start = self._expect(TokenKind.WHILE)
        cond = self.parse_expr()
        self._expect(TokenKind.DO)
        body = self._parse_body()
        return ast.While(start.location, cond, body)

    def _parse_repeat(self) -> ast.Stmt:
        start = self._expect(TokenKind.REPEAT)
        body = self._parse_statements_until(TokenKind.UNTIL)
        self._expect(TokenKind.UNTIL)
        cond = self.parse_expr()
        return ast.Repeat(start.location, body, cond)

    def _parse_for(self) -> ast.Stmt:
        start = self._expect(TokenKind.FOR)
        var = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.ASSIGN)
        begin = self.parse_expr()
        downward = False
        if self._accept(TokenKind.DOWNTO):
            downward = True
        else:
            self._expect(TokenKind.TO)
        stop = self.parse_expr()
        self._expect(TokenKind.DO)
        body = self._parse_body()
        return ast.For(start.location, var, begin, stop, downward, body)

    def _parse_assign_or_call(self) -> ast.Stmt:
        name_token = self._expect(TokenKind.IDENT)
        if self._check(TokenKind.LPAREN):
            self._advance()
            args: list[ast.Expr] = []
            if not self._check(TokenKind.RPAREN):
                args.append(self.parse_expr())
                while self._accept(TokenKind.COMMA):
                    args.append(self.parse_expr())
            self._expect(TokenKind.RPAREN)
            return ast.Call(name_token.location, name_token.text, args)
        target: ast.Expr
        if self._check(TokenKind.LBRACKET):
            target = self._parse_index(name_token)
        else:
            target = ast.VarRef(name_token.location, name_token.text)
        self._expect(TokenKind.ASSIGN)
        value = self.parse_expr()
        return ast.Assign(name_token.location, target, value)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_binary(1)

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """An expression whose binary operators are all of level
        ``min_level`` or tighter, by precedence climbing.

        ``limit`` is the highest level that may continue the expression:
        after an operator of level ``p`` only levels up to ``p`` (tighter
        ones were taken by its right operand), after a comparison only
        looser ones (comparisons do not chain), and after a ``not``
        prefix only ``and`` and ``or``.
        """
        tokens = self._tokens
        token = tokens[self._index]
        if token.kind is TokenKind.NOT and min_level <= _NOT_LEVEL:
            self._nest(token)
            self._index += 1
            operand = self._parse_binary(_NOT_LEVEL)
            self._depth -= 1
            expr = ast.Unary(token.location, "not", operand)
            limit = _AND_LEVEL
        else:
            expr = self._parse_unary()
            limit = _TIGHTEST_LEVEL
        while True:
            token = tokens[self._index]
            binary = _BINARY.get(token.kind)
            if binary is None:
                return expr
            op, level = binary
            if level < min_level or level > limit:
                return expr
            self._index += 1
            right = self._parse_binary(level + 1)
            expr = ast.Binary(token.location, op, expr, right)
            limit = level - 1 if level == _COMPARISON_LEVEL else level

    def _parse_unary(self) -> ast.Expr:
        token = self._advance()
        if token.kind is TokenKind.MINUS or token.kind is TokenKind.TILDE:
            self._nest(token)
            operand = self._parse_unary()
            self._depth -= 1
            return ast.Unary(token.location, token.text, operand)
        if token.kind is TokenKind.IDENT:
            if self._check(TokenKind.LBRACKET):
                return self._parse_index(token)
            return ast.VarRef(token.location, token.text)
        if token.kind is TokenKind.INT:
            return ast.IntLiteral(token.location, _int_value(token))
        if token.kind is TokenKind.REAL:
            value = float(token.text)
            if math.isinf(value):
                raise ParseError("real literal out of range",
                                 token.location)
            return ast.RealLiteral(token.location, value)
        if token.kind is TokenKind.LPAREN:
            self._nest(token)
            expr = self._parse_binary(1)
            self._expect(TokenKind.RPAREN)
            self._depth -= 1
            return expr
        raise ParseError(f"expected an expression, found {token.text!r}",
                         token.location)

    def _parse_index(self, name_token: Token) -> ast.IndexRef:
        """``name [ expr ]``, with ``name`` already consumed."""
        bracket = self._advance()
        self._nest(bracket)
        index = self.parse_expr()
        self._expect(TokenKind.RBRACKET)
        self._depth -= 1
        return ast.IndexRef(name_token.location, name_token.text, index)


def parse(source: str) -> ast.Program:
    """Parse behavioral source text into an AST program."""
    return Parser(tokenize(source)).parse_program()
