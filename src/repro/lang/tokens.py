"""Token definitions for the behavioral specification language (BSL).

BSL is the small Pascal/ISPS-flavoured procedural language the library
accepts as behavioral input — assignments, ``if``/``while``/``repeat``/
``for`` control constructs and procedure calls, matching the paper's
description of the input languages used by 1980s HLS systems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import SourceLocation


class TokenKind(enum.Enum):
    # Literals and identifiers
    IDENT = "identifier"
    INT = "integer literal"
    REAL = "real literal"
    # Keywords
    PROCEDURE = "procedure"
    INPUT = "input"
    OUTPUT = "output"
    VAR = "var"
    BEGIN = "begin"
    END = "end"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    WHILE = "while"
    DO = "do"
    REPEAT = "repeat"
    UNTIL = "until"
    FOR = "for"
    TO = "to"
    DOWNTO = "downto"
    AND = "and"
    OR = "or"
    NOT = "not"
    MOD = "mod"
    INT_TYPE = "int"
    UINT_TYPE = "uint"
    FIXED_TYPE = "fixed"
    UFIXED_TYPE = "ufixed"
    # Punctuation and operators
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    COLON = ":"
    SEMICOLON = ";"
    ASSIGN = ":="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    SHL = "<<"
    SHR = ">>"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    EQ = "="
    NE = "/="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EOF = "end of input"


KEYWORDS: dict[str, TokenKind] = {
    "procedure": TokenKind.PROCEDURE,
    "input": TokenKind.INPUT,
    "output": TokenKind.OUTPUT,
    "var": TokenKind.VAR,
    "begin": TokenKind.BEGIN,
    "end": TokenKind.END,
    "if": TokenKind.IF,
    "then": TokenKind.THEN,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "do": TokenKind.DO,
    "repeat": TokenKind.REPEAT,
    "until": TokenKind.UNTIL,
    "for": TokenKind.FOR,
    "to": TokenKind.TO,
    "downto": TokenKind.DOWNTO,
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "not": TokenKind.NOT,
    "mod": TokenKind.MOD,
    "int": TokenKind.INT_TYPE,
    "uint": TokenKind.UINT_TYPE,
    "fixed": TokenKind.FIXED_TYPE,
    "ufixed": TokenKind.UFIXED_TYPE,
}


@dataclass(slots=True)
class Token:
    """One lexical token with its source location.

    A plain slotted dataclass: the lexer builds one per token, and a
    frozen dataclass's constructor costs several times as much.  No
    code mutates or hashes a token.
    """

    kind: TokenKind
    text: str
    location: SourceLocation

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r} @ {self.location})"
