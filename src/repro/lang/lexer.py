"""Hand-written lexer for the behavioral specification language.

Comments run from ``--`` to end of line (the Ada style the paper's
systems used) or are enclosed in ``{ }`` (Pascal style).  Identifiers
are ASCII ``[A-Za-z_][A-Za-z0-9_]*`` — they reach the emitted Verilog
and VHDL as port, register and state names — and case-sensitive;
keywords are lowercase.
"""

from __future__ import annotations

import string

from ..errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

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


class Lexer:
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


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: lex ``source`` into tokens."""
    return Lexer(source).tokenize()
