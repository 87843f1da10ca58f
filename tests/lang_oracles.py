"""Test-only oracles for the front end: the character-at-a-time lexer
and the nine-level recursive-descent expression parser that the
one-regex lexer and the precedence-climbing parser replaced.

``reference_tokenize`` steps through the source one character at a
time.  ``ReferenceParser`` is the library's statement parser with the
old expression descent (``parse_expr`` through ``_parse_primary``, one
method per precedence level) in place of precedence climbing, so
``reference_parse`` differs from :func:`repro.lang.parse` only in how
it parses expressions; its expressions do not count toward
``MAX_NESTING``, so compare the two below that depth.  The library must
give the same tokens, ASTs and errors on every such input.
"""

from __future__ import annotations

import math
import string

from repro.errors import LexError, ParseError, SourceLocation
from repro.lang import ast
from repro.lang.parser import Parser, _int_value
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_TWO_CHAR = {
    ":=": TokenKind.ASSIGN,
    "<<": TokenKind.SHL,
    ">>": TokenKind.SHR,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "/=": TokenKind.NE,
}

_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_START | frozenset(string.digits)

_ONE_CHAR = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    ";": TokenKind.SEMICOLON,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "&": TokenKind.AMP,
    "|": TokenKind.PIPE,
    "^": TokenKind.CARET,
    "~": TokenKind.TILDE,
    "=": TokenKind.EQ,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
}


class ReferenceLexer:
    """Converts source text into a token stream."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        """Lex the whole input; the final token is always EOF."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # ------------------------------------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._column)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._source[index] if index < len(self._source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos < len(self._source):
                if self._source[self._pos] == "\n":
                    self._line += 1
                    self._column = 1
                else:
                    self._column += 1
                self._pos += 1

    def _skip_trivia(self) -> None:
        while True:
            char = self._peek()
            if char and char in " \t\r\n":
                self._advance()
            elif char == "-" and self._peek(1) == "-":
                while self._peek() not in ("", "\n"):
                    self._advance()
            elif char == "{":
                start = self._location()
                while self._peek() not in ("", "}"):
                    self._advance()
                if self._peek() != "}":
                    raise LexError("unterminated { comment", start)
                self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        location = self._location()
        char = self._peek()
        if char == "":
            return Token(TokenKind.EOF, "", location)
        if char in _IDENT_START:
            return self._identifier(location)
        if char.isdecimal():
            return self._number(location)
        two = char + self._peek(1)
        if two in _TWO_CHAR:
            self._advance(2)
            return Token(_TWO_CHAR[two], two, location)
        if char in _ONE_CHAR:
            self._advance()
            return Token(_ONE_CHAR[char], char, location)
        raise LexError(f"unexpected character {char!r}", location)

    def _identifier(self, location: SourceLocation) -> Token:
        start = self._pos
        while self._peek() in _IDENT_CHARS:
            self._advance()
        text = self._source[start:self._pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, location)

    def _number(self, location: SourceLocation) -> Token:
        start = self._pos
        while self._peek().isdecimal():
            self._advance()
        is_real = False
        if self._peek() == "." and self._peek(1).isdecimal():
            is_real = True
            self._advance()
            while self._peek().isdecimal():
                self._advance()
        text = self._source[start:self._pos]
        kind = TokenKind.REAL if is_real else TokenKind.INT
        return Token(kind, text, location)


def reference_tokenize(source: str) -> list[Token]:
    return ReferenceLexer(source).tokenize()


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


class ReferenceParser(Parser):
    """The statement parser on the old recursive expression descent."""

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


def reference_parse(source: str) -> ast.Program:
    return ReferenceParser(reference_tokenize(source)).parse_program()
