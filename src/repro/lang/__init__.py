"""Behavioral specification language (BSL) frontend.

``compile_source`` is the main entry: BSL text in, validated CDFG out.
"""

from . import ast
from .lexer import tokenize
from .parser import Parser, parse
from .semantics import Lowerer, compile_source
from .tokens import Token, TokenKind

__all__ = [
    "Lowerer",
    "Parser",
    "Token",
    "TokenKind",
    "ast",
    "compile_source",
    "parse",
    "tokenize",
]
