"""Recursive-descent parser for the behavioral specification language.

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
"""

from __future__ import annotations

import math

from ..errors import ParseError, SemanticError
from ..ir.types import ArrayType, FixedType, IntType, Type
from . import ast
from .lexer import tokenize
from .tokens import Token, TokenKind

_COMPARISONS = {
    TokenKind.EQ: "=",
    TokenKind.NE: "/=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}

_ADDITIVE = {
    TokenKind.PLUS: "+",
    TokenKind.MINUS: "-",
    TokenKind.PIPE: "|",
    TokenKind.CARET: "^",
}

_MULTIPLICATIVE = {
    TokenKind.STAR: "*",
    TokenKind.SLASH: "/",
    TokenKind.MOD: "mod",
    TokenKind.AMP: "&",
    TokenKind.SHL: "<<",
    TokenKind.SHR: ">>",
}


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
        if token.kind is TokenKind.IF:
            return self._parse_if()
        if token.kind is TokenKind.WHILE:
            return self._parse_while()
        if token.kind is TokenKind.REPEAT:
            return self._parse_repeat()
        if token.kind is TokenKind.FOR:
            return self._parse_for()
        if token.kind is TokenKind.IDENT:
            return self._parse_assign_or_call()
        raise ParseError(f"expected a statement, found {token.text!r}",
                         token.location)

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
        if self._accept(TokenKind.LBRACKET):
            index = self.parse_expr()
            self._expect(TokenKind.RBRACKET)
            target = ast.IndexRef(name_token.location, name_token.text, index)
        else:
            target = ast.VarRef(name_token.location, name_token.text)
        self._expect(TokenKind.ASSIGN)
        value = self.parse_expr()
        return ast.Assign(name_token.location, target, value)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        expr = self._parse_and()
        while self._check(TokenKind.OR):
            token = self._advance()
            right = self._parse_and()
            expr = ast.Binary(token.location, "or", expr, right)
        return expr

    def _parse_and(self) -> ast.Expr:
        expr = self._parse_not()
        while self._check(TokenKind.AND):
            token = self._advance()
            right = self._parse_not()
            expr = ast.Binary(token.location, "and", expr, right)
        return expr

    def _parse_not(self) -> ast.Expr:
        if self._check(TokenKind.NOT):
            token = self._advance()
            operand = self._parse_not()
            return ast.Unary(token.location, "not", operand)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        expr = self._parse_additive()
        if self._peek().kind in _COMPARISONS:
            token = self._advance()
            right = self._parse_additive()
            expr = ast.Binary(
                token.location, _COMPARISONS[token.kind], expr, right
            )
        return expr

    def _parse_additive(self) -> ast.Expr:
        expr = self._parse_multiplicative()
        while self._peek().kind in _ADDITIVE:
            token = self._advance()
            right = self._parse_multiplicative()
            expr = ast.Binary(token.location, _ADDITIVE[token.kind], expr, right)
        return expr

    def _parse_multiplicative(self) -> ast.Expr:
        expr = self._parse_unary()
        while self._peek().kind in _MULTIPLICATIVE:
            token = self._advance()
            right = self._parse_unary()
            expr = ast.Binary(
                token.location, _MULTIPLICATIVE[token.kind], expr, right
            )
        return expr

    def _parse_unary(self) -> ast.Expr:
        if self._check(TokenKind.MINUS):
            token = self._advance()
            return ast.Unary(token.location, "-", self._parse_unary())
        if self._check(TokenKind.TILDE):
            token = self._advance()
            return ast.Unary(token.location, "~", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._advance()
        if token.kind is TokenKind.INT:
            return ast.IntLiteral(token.location, _int_value(token))
        if token.kind is TokenKind.REAL:
            value = float(token.text)
            if math.isinf(value):
                raise ParseError("real literal out of range",
                                 token.location)
            return ast.RealLiteral(token.location, value)
        if token.kind is TokenKind.IDENT:
            if self._accept(TokenKind.LBRACKET):
                index = self.parse_expr()
                self._expect(TokenKind.RBRACKET)
                return ast.IndexRef(token.location, token.text, index)
            return ast.VarRef(token.location, token.text)
        if token.kind is TokenKind.LPAREN:
            expr = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        raise ParseError(f"expected an expression, found {token.text!r}",
                         token.location)


def parse(source: str) -> ast.Program:
    """Parse behavioral source text into an AST program."""
    return Parser(tokenize(source)).parse_program()
