"""Regular-expression lexer for the behavioral specification language.

Comments run from ``--`` to end of line (the Ada style the paper's
systems used) or are enclosed in ``{ }`` (Pascal style).  Identifiers
are ASCII ``[A-Za-z_][A-Za-z0-9_]*`` — they reach the emitted Verilog
and VHDL as port, register and state names — and case-sensitive;
keywords are lowercase.  Number literals take any decimal digit
(``str.isdecimal()``, which is what ``\\d`` matches in a ``str``
pattern), with an optional ``.digits`` fraction.

One compiled pattern matches the whole input left to right: a trivia
group (whitespace and both comment forms), identifiers, numbers and
operators (two-character operators before one-character ones), and a
last one-character group that only an error reaches.  Lines and
columns come from match offsets; every character, tab and carriage
return included, is one column wide.
"""

from __future__ import annotations

import re

from ..errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

_OPERATORS = {
    ":=": TokenKind.ASSIGN,
    "<<": TokenKind.SHL,
    ">>": TokenKind.SHR,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "/=": TokenKind.NE,
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

# Group numbers (``match.lastindex``) of the token pattern.
_TRIVIA, _IDENT, _NUMBER, _OPERATOR = range(1, 5)

_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|--[^\n]*|\{[^}]*\})+)"  # trivia
    r"|([A-Za-z_][A-Za-z0-9_]*)"  # identifier or keyword
    r"|(\d+(?:\.\d+)?)"  # integer or real literal
    r"|(:=|<<|>>|<=|>=|/=|[()\[\],:;+\-*/&|^~=<>])"  # operator
    r"|(.)",  # anything else: an error
    re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into tokens; the final token is always EOF."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        text = match.group()
        if group == _TRIVIA:
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
            continue
        location = SourceLocation(line, match.start() - line_start + 1)
        if group == _IDENT:
            append(Token(KEYWORDS.get(text, TokenKind.IDENT), text,
                         location))
        elif group == _NUMBER:
            kind = TokenKind.REAL if "." in text else TokenKind.INT
            append(Token(kind, text, location))
        elif group == _OPERATOR:
            append(Token(_OPERATORS[text], text, location))
        elif text == "{":
            raise LexError("unterminated { comment", location)
        else:
            raise LexError(f"unexpected character {text!r}", location)
    append(Token(TokenKind.EOF, "",
                 SourceLocation(line, len(source) - line_start + 1)))
    return tokens
